// Package runner is the shared fan-out engine for simulation
// campaigns. Every result in this repository — the E1..E12
// reproductions, the §VII tuning studies, the grid tests — is built
// from dozens to hundreds of *independent* trace-driven simulations
// (generation × workload × seed × design point). A Pool runs such a
// batch across a bounded set of workers with deterministic,
// order-preserving aggregation: because every job constructs its own
// sources and predictor state, parallel and serial execution produce
// byte-identical results (enforced by TestPoolDeterminism).
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// SourceSpec supplies the per-thread packed traces for one job. It is
// a factory, not a trace: the worker calls it with the job's
// instruction budget, so a batch holds only the traces of the jobs
// running now (plus whatever a shared cache keeps), and each job
// replays its own cursors no matter which worker runs it or in what
// order.
type SourceSpec func(n int) ([]*trace.Packed, error)

// Workload returns a SourceSpec for a single-threaded run of the named
// generated workload, packed for the job alone.
func Workload(name string, seed uint64) SourceSpec { return Cached(nil, name, seed) }

// Cached returns a SourceSpec for a single-threaded run of the named
// workload, drawn from mz at the job's budget: jobs sharing a key
// replay one buffer while it stays resident. A nil mz packs for the
// job alone.
func Cached(mz *workload.Materializer, name string, seed uint64) SourceSpec {
	return func(n int) ([]*trace.Packed, error) {
		p, err := mz.Get(name, seed, n)
		if err != nil {
			return nil, err
		}
		return []*trace.Packed{p}, nil
	}
}

// SMT2 returns a SourceSpec running two named workloads, one per
// hardware thread, packed for the job alone.
func SMT2(nameA string, seedA uint64, nameB string, seedB uint64) SourceSpec {
	return func(n int) ([]*trace.Packed, error) {
		a, err := workload.MakePacked(nameA, seedA, n)
		if err != nil {
			return nil, err
		}
		b, err := workload.MakePacked(nameB, seedB, n)
		if err != nil {
			return nil, err
		}
		return []*trace.Packed{a, b}, nil
	}
}

// Packed returns a SourceSpec replaying shared, pre-materialized
// traces, one per hardware thread. Each job gets its own value-type
// cursors over the same immutable buffers, so any number of workers
// replay concurrently without locks, per-record decode, or
// regeneration.
func Packed(ps ...*trace.Packed) SourceSpec {
	return func(int) ([]*trace.Packed, error) { return ps, nil }
}

// Job is one independent simulation: a configuration, the source
// factory, and a per-thread instruction budget.
type Job struct {
	// Name labels the job in errors and reports.
	Name string
	// Config is the full simulation setup (copied by value; jobs never
	// share mutable state).
	Config sim.Config
	// Source supplies the per-thread traces inside the worker.
	Source SourceSpec
	// Instructions bounds each thread's replay and is the budget Source
	// packs for. 0 replays whole buffers, which only Packed specs have:
	// packing a generator needs a positive budget.
	Instructions int
}

// Result pairs one job with its outcome. Err is non-nil if the source
// factory failed, the simulation errored (live-lock, cancellation) or
// panicked. For a canceled job Res holds the partial result of the
// work done before the cancellation (Truncated set); for other errors
// it is the zero value.
type Result struct {
	Name string
	Res  sim.Result
	Err  error
}

// Pool is a bounded worker-pool simulation runner. The zero value is
// ready to use and runs on all cores.
type Pool struct {
	// Parallelism bounds concurrent simulations; <=0 means GOMAXPROCS.
	Parallelism int
}

// Run executes every job and returns results in job order. Results are
// identical regardless of Parallelism: each worker writes only its
// job's slot and each job builds all of its own state. A panic inside
// a job (bad workload, model bug) is captured into that job's Err; the
// pool always drains all jobs.
//
// ctx cancels the batch: jobs not yet started get Err = ctx.Err()
// without running, and jobs already in flight stop cooperatively via
// sim.RunCtx, recording a partial result alongside the error. Run
// always returns a slice of len(jobs) and never leaks workers.
func (p *Pool) Run(ctx context.Context, jobs []Job) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	Each(ctx, len(jobs), p.Parallelism, func(i int) {
		results[i] = runOne(ctx, jobs[i])
	}, func(i int) {
		results[i] = Result{Name: jobs[i].Name, Err: fmt.Errorf("runner: job %q: %w", jobs[i].Name, ctx.Err())}
	})
	return results
}

// Each calls do(i) for every i in [0, n) on at most parallelism
// workers (<=0 means GOMAXPROCS) and returns once every call has
// returned. When ctx is done, the indices not yet handed to a worker
// go to skipped instead, on the calling goroutine. do and skipped
// never see the same index, so both may write slot i of a shared
// result slice without locks.
func Each(ctx context.Context, n, parallelism int, do, skipped func(i int)) {
	w := parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = min(w, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for ; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				do(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				skipped(j)
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
}

// runOne executes a single job, converting panics into errors so one
// bad design point cannot take down a whole campaign. The simulation
// itself runs on the error-returning RunCtx path; the recover is a
// backstop for panics in source factories and model construction.
func runOne(ctx context.Context, job Job) (res Result) {
	res.Name = job.Name
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("runner: job %q panicked: %v", job.Name, r)
		}
	}()
	if job.Source == nil {
		res.Err = fmt.Errorf("runner: job %q has no source", job.Name)
		return res
	}
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("runner: job %q: %w", job.Name, err)
		return res
	}
	ps, err := job.Source(job.Instructions)
	if err != nil {
		res.Err = fmt.Errorf("runner: job %q: %w", job.Name, err)
		return res
	}
	srcs := make([]trace.Source, len(ps))
	for i, p := range ps {
		c := p.Cursor()
		if job.Instructions > 0 {
			c.Limit(job.Instructions)
		}
		srcs[i] = &c
	}
	res.Res, err = sim.New(job.Config, srcs).RunCtx(ctx, 0)
	if err != nil {
		res.Err = fmt.Errorf("runner: job %q: %w", job.Name, err)
	}
	return res
}

// Run executes jobs on a default all-cores pool.
func Run(ctx context.Context, jobs []Job) []Result {
	return (&Pool{}).Run(ctx, jobs)
}

// Results unwraps a batch, panicking on the first error. Experiment
// and study drivers use it where a failed simulation indicates a
// programming error (unknown workload, model bug) rather than a
// recoverable condition.
func Results(rs []Result) []sim.Result {
	out := make([]sim.Result, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			panic(r.Err)
		}
		out[i] = r.Res
	}
	return out
}
