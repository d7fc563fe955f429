package runner_test

import (
	"context"
	"fmt"
	"testing"

	"zbp/internal/core"
	"zbp/internal/runner"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// The serial-vs-pool stats determinism contract this file used to pin
// directly (TestStatsJSONDeterminism) now lives in the differential
// harness: internal/equiv's pool-1-vs-n check runs it on every cell of
// every zdiff/diff-smoke grid.

func TestPoolZeroJobs(t *testing.T) {
	for _, par := range []int{0, 1, 4} {
		pool := &runner.Pool{Parallelism: par}
		results := pool.Run(context.Background(), nil)
		if len(results) != 0 {
			t.Errorf("parallelism %d: Run(nil) returned %d results", par, len(results))
		}
		results = pool.Run(context.Background(), []runner.Job{})
		if len(results) != 0 {
			t.Errorf("parallelism %d: Run(empty) returned %d results", par, len(results))
		}
	}
}

// TestPoolSharedPackedCursors is the core concurrency claim of the
// materialize-once pipeline: many more jobs than workers, every job
// holding a cursor over the SAME packed buffer, at every practical
// parallelism — results must come back in job order and byte-identical
// to a serial reference. Run with -race this also proves cursor replay
// over a shared buffer is data-race free.
func TestPoolSharedPackedCursors(t *testing.T) {
	const (
		seed  = 7
		scale = 15_000
		nJobs = 24 // far more jobs than any worker count below
	)
	src, err := workload.Make("lspr", seed)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := trace.Pack(src, scale)
	if err != nil {
		t.Fatal(err)
	}

	gens := core.Generations()
	jobs := make([]runner.Job, nJobs)
	for i := range jobs {
		gen := gens[i%len(gens)]
		jobs[i] = runner.Job{
			Name:         fmt.Sprintf("%02d-%s", i, gen.Name),
			Config:       sim.ForGeneration(gen),
			Source:       runner.Packed(packed),
			Instructions: scale,
		}
	}

	// Serial reference over the same shared buffer.
	want := make([][]byte, len(jobs))
	for i, job := range jobs {
		c := packed.CursorN(job.Instructions)
		res, err := sim.New(job.Config, []trace.Source{&c}).RunCtx(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = js
	}

	for par := 1; par <= 8; par++ {
		t.Run(fmt.Sprintf("parallel-%d", par), func(t *testing.T) {
			results := (&runner.Pool{Parallelism: par}).Run(context.Background(), jobs)
			if len(results) != len(jobs) {
				t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Name, r.Err)
				}
				if r.Name != jobs[i].Name {
					t.Fatalf("result %d out of order: got %q, want %q", i, r.Name, jobs[i].Name)
				}
				js, err := r.Res.StatsJSON()
				if err != nil {
					t.Fatal(err)
				}
				if string(js) != string(want[i]) {
					t.Errorf("%s: shared-cursor pool run differs from serial reference", r.Name)
				}
			}
		})
	}
}

// TestPoolJobErrorIsolation checks a failing source factory poisons
// only its own slot: surrounding packed-cursor jobs still complete.
func TestPoolJobErrorIsolation(t *testing.T) {
	src, err := workload.Make("micro", 3)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := trace.Pack(src, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	ok := runner.Job{
		Name:         "ok",
		Config:       sim.ForGeneration(core.Z15()),
		Source:       runner.Packed(packed),
		Instructions: 5_000,
	}
	bad := runner.Job{
		Name:         "bad",
		Config:       sim.ForGeneration(core.Z15()),
		Source:       runner.Workload("no-such-workload", 1),
		Instructions: 5_000,
	}
	results := (&runner.Pool{Parallelism: 2}).Run(context.Background(), []runner.Job{ok, bad, ok})
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("job with unknown workload reported no error")
	}
}
