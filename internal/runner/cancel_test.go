package runner_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"zbp/internal/runner"
	"zbp/internal/sim"
	"zbp/internal/workload"
)

// TestPoolCanceledBeforeStart: a context canceled before Run is called
// marks every job with ctx.Err() without simulating anything.
func TestPoolCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []runner.Job{
		{Name: "a", Config: sim.Z15(), Source: runner.Cached(nil, "lspr", 1), Instructions: 1_000_000},
		{Name: "b", Config: sim.Z15(), Source: runner.Cached(nil, "lspr", 2), Instructions: 1_000_000},
		{Name: "c", Config: sim.Z15(), Source: runner.Cached(nil, "lspr", 3), Instructions: 1_000_000},
	}
	start := time.Now()
	results := (&runner.Pool{Parallelism: 2}).Run(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-canceled batch took %v", elapsed)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Name != jobs[i].Name {
			t.Errorf("result %d name = %q, want %q", i, r.Name, jobs[i].Name)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %q err = %v, want context.Canceled", r.Name, r.Err)
		}
	}
}

// TestPoolCancelMidBatch: at every parallelism 1..8, canceling a batch
// of multi-second jobs mid-flight returns promptly, keeps job order,
// and marks unfinished jobs with the context error.
func TestPoolCancelMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cancellation timing test")
	}
	// One shared packed trace keeps the batch cheap to set up; each job
	// still replays its own cursor.
	p, err := workload.MakePacked("lspr", 42, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	const nJobs = 12
	for par := 1; par <= 8; par++ {
		t.Run(string(rune('0'+par)), func(t *testing.T) {
			jobs := make([]runner.Job, nJobs)
			for i := range jobs {
				jobs[i] = runner.Job{
					Name:         "replay",
					Config:       sim.Z15(),
					Source:       runner.Packed(p),
					Instructions: 2_000_000,
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			results := (&runner.Pool{Parallelism: par}).Run(ctx, jobs)
			elapsed := time.Since(start)
			// The full batch is nJobs x ~0.5s of simulation; a canceled
			// run must come back orders of magnitude sooner. Keep the
			// bound loose for -race CI machines.
			if elapsed > 10*time.Second {
				t.Fatalf("canceled batch took %v", elapsed)
			}
			if len(results) != nJobs {
				t.Fatalf("got %d results, want %d", len(results), nJobs)
			}
			canceled := 0
			for _, r := range results {
				if r.Err == nil {
					continue
				}
				if !errors.Is(r.Err, context.DeadlineExceeded) {
					t.Errorf("unexpected error: %v", r.Err)
				}
				canceled++
			}
			if canceled == 0 {
				t.Error("no job observed the cancellation")
			}
		})
	}
}

// TestPoolCancelPartialResults: an in-flight job stopped by
// cancellation surfaces the truncated partial result next to its
// error.
func TestPoolCancelPartialResults(t *testing.T) {
	p, err := workload.MakePacked("lspr", 42, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []runner.Job{{
		Name:         "long",
		Config:       sim.Z15(),
		Source:       runner.Packed(p),
		Instructions: 2_000_000,
	}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	res := (&runner.Pool{Parallelism: 1}).Run(ctx, jobs)[0]
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.Err)
	}
	if !res.Res.Truncated {
		t.Error("canceled in-flight job's partial result not marked Truncated")
	}
	if res.Res.Instructions() == 0 {
		t.Error("50ms of simulation retired no instructions")
	}
}
