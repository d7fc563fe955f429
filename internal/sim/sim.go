// Package sim drives whole-predictor simulations: it wires the
// lookahead predictor core, the front-end consumption model and the
// I-cache hierarchy together, runs instruction traces through them in
// single-thread or SMT2 mode, and collects the metrics the paper's
// experiments report (MPKI, provider shares, restart stalls, prefetch
// effect, pipeline periods).
package sim

import (
	"context"
	"errors"
	"fmt"

	"zbp/internal/btb"
	"zbp/internal/core"
	"zbp/internal/cpred"
	"zbp/internal/dirpred"
	"zbp/internal/frontend"
	"zbp/internal/icache"
	"zbp/internal/tgt"
	"zbp/internal/trace"
	"zbp/internal/zarch"
)

// Config assembles one simulation setup.
type Config struct {
	Core  core.Config
	Front frontend.Config
	// ICache enables the instruction-cache model; nil disables it (all
	// fetches hit).
	ICache *icache.Config
	// Prefetch wires BPL searches into the I-cache (the §IV lookahead
	// prefetch). Ignored without an I-cache.
	Prefetch bool
}

// Z15 returns a full z15 simulation config.
func Z15() Config {
	ic := icache.Z15()
	return Config{Core: core.Z15(), Front: frontend.DefaultConfig(), ICache: &ic, Prefetch: true}
}

// ForGeneration returns a full simulation config for a generational
// core preset, pairing it with the matching cache hierarchy.
func ForGeneration(c core.Config) Config {
	var ic icache.Config
	switch c.Name {
	case "z15":
		ic = icache.Z15()
	case "z14":
		ic = icache.Z14()
	case "z13":
		ic = icache.Z13()
	default:
		ic = icache.ZEC12()
	}
	return Config{Core: c, Front: frontend.DefaultConfig(), ICache: &ic, Prefetch: true}
}

// Result aggregates everything a run produced.
type Result struct {
	Name string
	// Truncated reports that the run stopped before every thread's
	// trace was exhausted: the maxCycles budget expired or the run's
	// context was canceled. A truncated result is a valid snapshot of
	// the work done so far, but its headline metrics describe a prefix
	// of the workload, not the whole trace.
	Truncated bool
	// FastCore is always true: RunCtx has one cycle loop, with or
	// without an EventSink. The field survives only because the
	// benchmark driver (perfbench, a separate module) still assigns
	// it; it is absent from the stats JSON schema.
	FastCore bool
	Cycles   int64
	Threads  []frontend.Stats
	Core     core.Stats
	BTB1     btb.Stats
	BTB2     btb.Stats
	Dir      dirpred.Stats
	Tgt      tgt.Stats
	CPred    cpred.Stats
	IC       icache.Stats
}

// Instructions returns total retired instructions across threads.
func (r Result) Instructions() int64 {
	var n int64
	for _, t := range r.Threads {
		n += t.Instructions
	}
	return n
}

// Branches returns total retired branches.
func (r Result) Branches() int64 {
	var n int64
	for _, t := range r.Threads {
		n += t.Branches
	}
	return n
}

// Mispredicts returns total mispredicted branches.
func (r Result) Mispredicts() int64 {
	var n int64
	for _, t := range r.Threads {
		n += t.Mispredicts()
	}
	return n
}

// MPKI returns mispredicts per thousand instructions across threads.
func (r Result) MPKI() float64 {
	if r.Instructions() == 0 {
		return 0
	}
	return float64(r.Mispredicts()) / float64(r.Instructions()) * 1000
}

// IPC returns aggregate instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions()) / float64(r.Cycles)
}

// Accuracy returns the fraction of branches predicted correctly
// (dynamic and static). A branch-free trace has zero mispredicts, so
// its accuracy is 1, not 0.
func (r Result) Accuracy() float64 {
	b := r.Branches()
	if b == 0 {
		return 1
	}
	return 1 - float64(r.Mispredicts())/float64(b)
}

// Sim is one wired-up simulation.
type Sim struct {
	cfg     Config
	core    *core.Core
	ic      *icache.Hierarchy
	threads []*frontend.Thread
}

// New builds a simulation over one source per thread (1 = single
// thread, 2 = SMT2). Bound the sources with trace.Limit to control run
// length.
func New(cfg Config, srcs []trace.Source) *Sim {
	if len(srcs) < 1 || len(srcs) > core.MaxThreads {
		panic(fmt.Sprintf("sim: need 1..%d sources, got %d", core.MaxThreads, len(srcs)))
	}
	s := &Sim{cfg: cfg, core: core.New(cfg.Core), threads: make([]*frontend.Thread, 0, len(srcs))}
	if cfg.ICache != nil {
		s.ic = icache.New(*cfg.ICache)
		if cfg.Prefetch {
			ic := s.ic
			c := s.core
			c.SetSearchHook(func(t int, line zarch.Addr) {
				ic.Prefetch(line, c.Clock())
			})
		}
	}
	for i, src := range srcs {
		s.threads = append(s.threads, frontend.NewThread(cfg.Front, i, s.core, s.ic, src))
	}
	return s
}

// Core exposes the predictor for white-box verification.
func (s *Sim) Core() *core.Core { return s.core }

// ErrLiveLock reports that a run made no forward progress (no
// instruction retired) for liveLockWindow cycles, which indicates a
// model bug rather than a recoverable condition.
var ErrLiveLock = errors.New("sim: live-lock, no instruction retired")

// liveLockWindow is the no-progress cycle budget before a run is
// declared live-locked.
const liveLockWindow = 200000

// ctxCheckMask throttles context polling in the cycle loop: the run
// context is checked whenever clock&ctxCheckMask == 0, i.e. every 4096
// cycles (a few microseconds of wall clock), so cancellation is prompt
// without a per-cycle channel operation.
const ctxCheckMask = 4096 - 1

// RunCtx executes until every thread's trace is exhausted, maxCycles
// elapses (0 = no bound), or ctx is canceled. It returns:
//
//   - trace exhausted: (complete result, nil)
//   - maxCycles expired: (partial result with Truncated set, nil)
//   - ctx canceled: (partial result with Truncated set, ctx.Err())
//   - live-lock: (partial result with Truncated set, ErrLiveLock)
//
// Cancellation is cooperative — the context is polled every 4096
// cycles — so a canceled simulation stops within microseconds without
// leaking its goroutine.
//
// This is the one cycle loop, with or without an EventSink: sinks are
// hooks that fire beneath it, inside Core.Cycle, Thread.Step and
// Hierarchy.Tick. Each cycle checks done, maxCycles and cancellation,
// then cycles the core, steps the threads, ticks the I-cache and reads
// progress. The per-cycle bookkeeping is monomorphized down to plain
// integer loads:
//
//   - thread progress is read through Thread.Instructions (one int64
//     load) instead of copying the whole frontend.Stats struct per
//     cycle, which the CPU profile showed as runtime.duffcopy heat;
//   - the thread set is unrolled for the ST and SMT2 shapes (the only
//     two core.MaxThreads allows), so the loop body has no slice
//     range or per-iteration bounds checks on the hot spine.
//
// The deeper specialization lives below this loop: the front end calls
// the concrete *trace.Cursor.Next for packed replays instead of
// dispatching through the Source interface (frontend.go), predictions
// are peeked by pointer instead of copied (core.go), and BTB rows are
// flat structure-of-arrays columns (btb.go). Note Go generics would
// not achieve the cursor monomorphization: gcshape stenciling
// collapses all pointer type arguments into one dictionary-dispatched
// instantiation, so the concrete-field-plus-nil-check form is the one
// the inliner can see through. The packed-vs-streaming, run-vs-runctx
// and event-replay pairs in internal/equiv check it byte-for-byte.
func (s *Sim) RunCtx(ctx context.Context, maxCycles int64) (Result, error) {
	cancel := ctx.Done()
	c := s.core
	var lastInstr int64
	var lastProgress int64
	truncated := false
	var runErr error

	t0 := s.threads[0]
	t1 := t0
	smt := len(s.threads) > 1
	if smt {
		t1 = s.threads[1]
	}

loop:
	for {
		if t0.Done() && t1.Done() {
			break
		}
		clk := c.Clock()
		if maxCycles > 0 && clk >= maxCycles {
			truncated = true
			break
		}
		if cancel != nil && clk&ctxCheckMask == 0 {
			select {
			case <-cancel:
				truncated = true
				runErr = ctx.Err()
				break loop
			default:
			}
		}
		c.Cycle()
		now := c.Clock()
		t0.Step(now)
		if smt {
			t1.Step(now)
		}
		if s.ic != nil {
			s.ic.Tick(now)
		}
		instr := t0.Instructions()
		if smt {
			instr += t1.Instructions()
		}
		if instr > lastInstr {
			lastInstr = instr
			lastProgress = now
		} else if now-lastProgress > liveLockWindow {
			truncated = true
			runErr = fmt.Errorf("%w: %d cycles without progress at clock %d (%d instructions)",
				ErrLiveLock, now-lastProgress, now, instr)
			break
		}
	}
	res := s.result()
	res.Truncated = truncated
	res.FastCore = true
	return res, runErr
}

func (s *Sim) result() Result {
	res := Result{
		Name:   s.cfg.Core.Name,
		Cycles: s.core.Clock(),
		Core:   s.core.Stats(),
		BTB1:   s.core.BTB1Stats(),
		BTB2:   s.core.BTB2Stats(),
		Dir:    s.core.DirStats(),
		Tgt:    s.core.TgtStats(),
		CPred:  s.core.CPredStats(),
	}
	res.Threads = make([]frontend.Stats, 0, len(s.threads))
	for _, t := range s.threads {
		res.Threads = append(res.Threads, t.Stats())
	}
	if s.ic != nil {
		res.IC = s.ic.Stats()
	}
	return res
}

// RunWorkloadCtx simulates n instructions of src on cfg under ctx,
// with RunCtx's cancellation and error semantics. A packed cursor
// (trace.Packed replay) takes a fast path: its records were validated
// at materialization and it bounds itself, so the per-instruction loop
// skips the Limit wrapper's extra interface hop.
func RunWorkloadCtx(ctx context.Context, cfg Config, src trace.Source, n int) (Result, error) {
	if c, ok := src.(*trace.Cursor); ok {
		c.Limit(n)
		return New(cfg, []trace.Source{c}).RunCtx(ctx, 0)
	}
	s := New(cfg, []trace.Source{trace.Limit(src, n)})
	return s.RunCtx(ctx, 0)
}
