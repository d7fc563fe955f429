package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"zbp/internal/equiv"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
	"zbp/internal/workload"
)

// local is zbpd's executor: a bounded queue in front of the simulator,
// over a shared materialize-once workload cache. Every cell takes one
// queue slot, so total simulation concurrency is the worker count, and
// a full queue is errQueueFull — the backpressure behind HTTP 429.
type local struct {
	cfg Config
	mz  *workload.Materializer
	q   *queue

	inflight     atomic.Int64
	instructions atomic.Int64
	// runNanosEWMA tracks a smoothed per-task queue-slot duration (ns),
	// feeding the Retry-After estimate on 429 responses.
	runNanosEWMA atomic.Int64
}

// New builds zbpd: the front end over a local executor with its worker
// pool running. Callers must Close it (after draining the HTTP layer)
// to stop the workers. The construction failures are an unusable cache
// or trace directory.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.TraceDir != "" {
		// Absolutize once so the containment check in resolveTracePath is
		// a plain prefix comparison regardless of the server's cwd.
		abs, err := filepath.Abs(cfg.TraceDir)
		if err != nil {
			return nil, fmt.Errorf("server: trace dir: %w", err)
		}
		cfg.TraceDir = abs
	}
	l := &local{cfg: cfg, mz: workload.NewMaterializer(), q: newQueue(cfg.Workers, cfg.QueueDepth)}
	s, err := NewFrontend(cfg, l, Role{
		Service: "zbpd", Prefix: "zbpd.",
		GridWidth: 1, FailStatus: http.StatusInternalServerError,
		Now: cfg.now,
	})
	if err != nil {
		l.q.close()
		return nil, err
	}
	return s, nil
}

// Exec takes one queue slot and simulates the cell there.
func (l *local) Exec(ctx context.Context, cell rcache.CellSpec, _ bool) (Outcome, error) {
	var (
		stats []byte
		err   error
	)
	if qerr := l.enqueue(ctx, func(ctx context.Context) { stats, err = l.computeCellStats(ctx, cell) }); qerr != nil {
		return Outcome{}, qerr
	}
	if err == nil && ctx.Err() != nil {
		// Skipped while queued: the deadline beat the workers to it.
		err = ctx.Err()
	}
	return Outcome{Stats: stats}, err
}

// computeCellStats runs one cell's simulation and renders the
// canonical stats JSON — the bytes the result cache stores and the
// equiv auditor re-derives. Truncated results are an error: a partial
// run is neither cacheable nor a valid sweep row.
func (l *local) computeCellStats(ctx context.Context, cell rcache.CellSpec) ([]byte, error) {
	res, err := equiv.RunCell(ctx, l.mz, cell)
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return nil, errors.New("truncated result is not cacheable")
	}
	l.instructions.Add(res.Instructions())
	return res.StatsJSON()
}

// Recompute runs a sampled hit from scratch through equiv.Recompute —
// the safety reference, deliberately independent of the serving path
// and its shared trace cache.
func (l *local) Recompute(ctx context.Context, cell rcache.CellSpec) ([]byte, error) {
	return equiv.Recompute(ctx, cell)
}

// Diff runs the harness grid inside one queue slot, one cell at a time,
// so simulation concurrency stays at the worker count.
func (l *local) Diff(ctx context.Context, req DiffRequest, seed uint64, onCell func(DiffCell)) ([]DiffCell, error) {
	grid := equiv.Grid(req.Configs, req.Workloads, []uint64{seed}, req.Instructions)
	opts := equiv.Options{Checks: req.Checks, Perturb: req.Perturb}
	cells := make([]DiffCell, 0, len(grid))
	err := l.enqueue(ctx, func(ctx context.Context) {
		for _, cell := range grid {
			cr := equiv.CheckCell(ctx, cell, opts)
			if ctx.Err() != nil {
				return
			}
			dc := diffCellOf(cr)
			cells = append(cells, dc)
			if onCell != nil {
				onCell(dc)
			}
		}
	})
	if err == nil {
		err = ctx.Err() // skipped while queued, or cut short
	}
	return cells, err
}

// TraceName confines one path-backed workload name to the TraceDir
// allowlist and returns it with the path absolutized. Spec documents
// are additionally opened so every trace file they reference is
// confined too — the spec itself being inside the directory does not
// make its pointers trustworthy.
func (l *local) TraceName(name string) (string, error) {
	if l.cfg.TraceDir == "" {
		return "", errors.New("file-backed workloads are disabled (start the server with a trace dir)")
	}
	prefix := workload.FilePrefix
	if strings.HasPrefix(name, workload.SpecPrefix) {
		prefix = workload.SpecPrefix
	}
	abs, err := l.resolveTracePath(name[len(prefix):])
	if err != nil {
		return "", err
	}
	if prefix == workload.SpecPrefix {
		files, err := workload.SpecFiles(abs)
		if err != nil {
			return "", err
		}
		for _, f := range files {
			if _, err := l.resolveTracePath(f); err != nil {
				return "", err
			}
		}
	}
	return prefix + abs, nil
}

// resolveTracePath resolves ref against the trace dir (unless already
// absolute) and rejects any result outside it, including `..` escapes
// and absolute paths elsewhere.
func (l *local) resolveTracePath(ref string) (string, error) {
	abs := ref
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.cfg.TraceDir, abs)
	}
	abs = filepath.Clean(abs)
	if abs != l.cfg.TraceDir && !strings.HasPrefix(abs, l.cfg.TraceDir+string(filepath.Separator)) {
		return "", fmt.Errorf("trace path %q escapes the allowlisted trace directory", ref)
	}
	return abs, nil
}

// enqueue pushes run through the bounded queue and tracks the inflight
// gauge around it. Executed task durations feed the EWMA behind the
// Retry-After estimate.
func (l *local) enqueue(ctx context.Context, run func(ctx context.Context)) error {
	l.inflight.Add(1)
	defer l.inflight.Add(-1)
	return l.q.submitWait(ctx, func(ctx context.Context) {
		start := time.Now()
		run(ctx)
		l.observeRun(time.Since(start))
	})
}

// observeRun folds one task duration into the smoothed estimate
// (alpha = 1/8). A CAS loop keeps concurrent workers from losing
// updates; the estimate only steers Retry-After, so contention is
// cheap and precision irrelevant.
func (l *local) observeRun(d time.Duration) {
	for {
		old := l.runNanosEWMA.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if l.runNanosEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// RetryAfter estimates when a queue slot will open: the queued work
// plus the incoming task, spread over the workers, at the smoothed
// per-task duration (1s until the first task completes).
func (l *local) RetryAfter() time.Duration {
	avg := time.Duration(l.runNanosEWMA.Load())
	if avg <= 0 {
		avg = time.Second
	}
	return time.Duration(l.q.depth()+1) * avg / time.Duration(l.cfg.Workers)
}

func (l *local) RunSecondsEWMA() float64 {
	return time.Duration(l.runNanosEWMA.Load()).Seconds()
}

func (l *local) Health() any {
	return Health{
		Status:         "ok",
		Workers:        l.cfg.Workers,
		QueueDepth:     l.q.depth(),
		QueueCapacity:  l.cfg.QueueDepth,
		Inflight:       l.inflight.Load(),
		RunSecondsEWMA: l.RunSecondsEWMA(),
	}
}

func (l *local) Register(reg *metrics.Registry) {
	gauge := func(name string, f func() float64) { reg.Gauge(name, f) }
	count := func(name string, v *atomic.Int64) {
		gauge(name, func() float64 { return float64(v.Load()) })
	}
	count("zbpd.instructions_total", &l.instructions)
	count("zbpd.inflight", &l.inflight)
	gauge("zbpd.run_seconds_ewma", l.RunSecondsEWMA)
	gauge("zbpd.queue_depth", func() float64 { return float64(l.q.depth()) })
	gauge("zbpd.queue_capacity", func() float64 { return float64(l.cfg.QueueDepth) })
	gauge("zbpd.workers", func() float64 { return float64(l.cfg.Workers) })
	gauge("zbpd.mat_traces", func() float64 { return float64(l.mz.Count()) })
	gauge("zbpd.mat_bytes", func() float64 { return float64(l.mz.FootprintBytes()) })
	gauge("zbpd.mat_evictions_total", func() float64 { return float64(l.mz.Evictions()) })
}

// Shutdown refuses new queue work and waits for every accepted
// simulation to finish.
func (l *local) Shutdown() { l.q.close() }
