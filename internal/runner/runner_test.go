package runner

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// mixedBatch is a representative campaign: several workloads, seeds,
// configurations, an SMT2 pair and a custom-source job.
func mixedBatch(t testing.TB) []Job {
	t.Helper()
	shrunk := sim.Z15()
	shrunk.Core.BTB1.RowBits = 8
	noPref := sim.Z15()
	noPref.Prefetch = false
	custom := func(n int) ([]*trace.Packed, error) {
		p, err := workload.MakePacked("loops", 7, n)
		if err != nil {
			return nil, err
		}
		return []*trace.Packed{p}, nil
	}
	return []Job{
		{Name: "lspr/z15", Config: sim.Z15(), Source: Workload("lspr", 42), Instructions: 30000},
		{Name: "micro/z15", Config: sim.Z15(), Source: Workload("micro", 43), Instructions: 30000},
		{Name: "lspr/shrunk", Config: shrunk, Source: Workload("lspr", 42), Instructions: 30000},
		{Name: "indirect/nopref", Config: noPref, Source: Workload("indirect", 44), Instructions: 30000},
		{Name: "smt2", Config: sim.Z15(), Source: SMT2("loops", 5, "micro", 6), Instructions: 20000},
		{Name: "custom", Config: sim.Z15(), Source: custom, Instructions: 25000},
		{Name: "patterned/z15", Config: sim.Z15(), Source: Workload("patterned", 45), Instructions: 30000},
		{Name: "callret/z15", Config: sim.Z15(), Source: Workload("callret", 46), Instructions: 30000},
	}
}

// TestPoolDeterminism is the core contract: a serial pool and a wide
// pool must produce identical sim.Result values for the same jobs —
// per-thread stats included — regardless of scheduling.
func TestPoolDeterminism(t *testing.T) {
	serial := (&Pool{Parallelism: 1}).Run(context.Background(), mixedBatch(t))
	wide := (&Pool{Parallelism: 8}).Run(context.Background(), mixedBatch(t))
	if len(serial) != len(wide) {
		t.Fatalf("result count differs: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		if serial[i].Err != nil || wide[i].Err != nil {
			t.Fatalf("job %q errored: serial=%v wide=%v", serial[i].Name, serial[i].Err, wide[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Res, wide[i].Res) {
			t.Errorf("job %q: serial and parallel results differ:\nserial: %+v\nwide:   %+v",
				serial[i].Name, serial[i].Res, wide[i].Res)
		}
	}
}

// TestPoolOrderPreserved: results come back in job order with names
// attached, however the workers interleave.
func TestPoolOrderPreserved(t *testing.T) {
	jobs := mixedBatch(t)
	out := (&Pool{Parallelism: 4}).Run(context.Background(), jobs)
	for i, r := range out {
		if r.Name != jobs[i].Name {
			t.Errorf("slot %d: got job %q, want %q", i, r.Name, jobs[i].Name)
		}
	}
}

// TestPoolPanicDrains: a panicking job must surface as that job's Err
// while every other job still completes; the pool must not deadlock or
// leak the panic.
func TestPoolPanicDrains(t *testing.T) {
	boom := func(int) ([]*trace.Packed, error) {
		panic("synthetic source failure")
	}
	jobs := []Job{
		{Name: "ok-before", Config: sim.Z15(), Source: Workload("loops", 1), Instructions: 10000},
		{Name: "boom", Config: sim.Z15(), Source: boom, Instructions: 10000},
		{Name: "ok-after", Config: sim.Z15(), Source: Workload("micro", 2), Instructions: 10000},
	}
	for _, par := range []int{1, 8} {
		out := (&Pool{Parallelism: par}).Run(context.Background(), jobs)
		if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "synthetic source failure") {
			t.Fatalf("par=%d: want panic error on job 1, got %v", par, out[1].Err)
		}
		for _, i := range []int{0, 2} {
			if out[i].Err != nil {
				t.Errorf("par=%d: job %q should have completed, got %v", par, out[i].Name, out[i].Err)
			}
			if out[i].Res.Instructions() == 0 {
				t.Errorf("par=%d: job %q retired no instructions", par, out[i].Name)
			}
		}
	}
}

// TestPoolErrors: a missing source and an unknown workload produce
// errors, not panics, and don't disturb neighbours.
func TestPoolErrors(t *testing.T) {
	jobs := []Job{
		{Name: "nosource", Config: sim.Z15(), Instructions: 1000},
		{Name: "unknown", Config: sim.Z15(), Source: Workload("no-such-workload", 1), Instructions: 1000},
		{Name: "fine", Config: sim.Z15(), Source: Workload("loops", 1), Instructions: 1000},
	}
	out := Run(context.Background(), jobs)
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "no source") {
		t.Errorf("want no-source error, got %v", out[0].Err)
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "unknown workload") {
		t.Errorf("want unknown-workload error, got %v", out[1].Err)
	}
	if out[2].Err != nil {
		t.Errorf("fine job failed: %v", out[2].Err)
	}
}

// TestResultsPanicsOnError: the unwrap helper converts job errors into
// panics for the drivers that treat them as programming errors.
func TestResultsPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Results did not panic on a failed job")
		}
	}()
	Results(Run(context.Background(), []Job{{Name: "bad", Config: sim.Z15(), Source: Workload("nope", 1)}}))
}

// TestEmptyBatch: zero jobs is a no-op, not a hang.
func TestEmptyBatch(t *testing.T) {
	if out := Run(context.Background(), nil); len(out) != 0 {
		t.Fatalf("want empty results, got %d", len(out))
	}
}
