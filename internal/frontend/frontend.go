// Package frontend models the consumers of the asynchronous branch
// predictor: the ICM instruction fetcher and the IDU decode/dispatch
// stage (paper §I, §IV). It walks an architectural instruction trace,
// enforces the strict dispatch synchronization with BPL progress
// introduced on z13, applies dynamic predictions to branches, handles
// surprise branches with static guesses, detects bad (partial-tag)
// predictions, charges the restart penalties of §II, and drives
// completion-time updates back into the predictor.
package frontend

import (
	"zbp/internal/core"
	"zbp/internal/icache"
	"zbp/internal/metrics"
	"zbp/internal/trace"
	"zbp/internal/zarch"
)

// Config holds the consumption-side parameters.
type Config struct {
	// DispatchWidth is the maximum instructions dispatched per cycle
	// (up to 6 on z15, §I).
	DispatchWidth int
	// FetchBytes is the instruction fetch bandwidth per cycle (32B,
	// §IV).
	FetchBytes int
	// RestartPenalty is the branch-wrong flush cost ("up to 26 cycles",
	// §I).
	RestartPenalty int64
	// QueueRefillPenalty is the additional issue-queue recovery
	// inefficiency after a full restart ("up to 10 cycles", §II.B);
	// together they model the ~35-cycle statistical penalty (§II.D).
	QueueRefillPenalty int64
	// SurpriseTakenRelPenalty is the front-end redirect bubble for a
	// statically guessed-taken relative branch (target computed in the
	// front end, §IV).
	SurpriseTakenRelPenalty int64
	// SurpriseTakenIndPenalty is the stall for a guessed-taken indirect
	// branch: the front end waits for the execution units to compute
	// the target (§IV: "the front end shuts down").
	SurpriseTakenIndPenalty int64
	// BadPredPenalty is the restart cost when the IDU detects a
	// prediction on a non-branch / mid-instruction (§IV).
	BadPredPenalty int64
}

// DefaultConfig returns the modeled z15 front-end parameters.
func DefaultConfig() Config {
	return Config{
		DispatchWidth: 6, FetchBytes: 32,
		RestartPenalty: 26, QueueRefillPenalty: 8,
		SurpriseTakenRelPenalty: 6, SurpriseTakenIndPenalty: 30,
		BadPredPenalty: 26,
	}
}

// Stats counts front-end events for one thread.
type Stats struct {
	Instructions int64
	Branches     int64
	Cycles       int64 // cycles this thread was live

	DynamicPredicted int64
	DynCorrect       int64
	DynWrongDir      int64
	DynWrongTarget   int64

	Surprises        int64
	SurpriseWrong    int64 // static guess direction wrong
	SurpriseTakenRel int64
	SurpriseTakenInd int64
	BadPredictions   int64

	// TgtProvided/TgtWrong count taken dynamic predictions by target
	// provider (0 BTB, 1 CTB, 2 CRS) and how many resolved wrong.
	TgtProvided [3]int64
	TgtWrong    [3]int64

	DispatchSyncStall int64 // cycles stalled waiting for BPL coverage
	FetchStall        int64 // cycles stalled on I-cache
	RestartStall      int64 // cycles lost to restarts/penalties
	// RestartHist distributes the per-restart penalty in cycles; the
	// bucket bounds straddle the configured §II penalties (6-cycle
	// surprise redirect, 26-cycle branch wrong, +8 queue refill).
	RestartHist metrics.Hist
	Done        bool
}

// NewRestartHist returns the restart-penalty histogram shape.
func NewRestartHist() metrics.Hist {
	return metrics.NewHist(0, 4, 8, 16, 26, 30, 34)
}

// Register exposes every counter and the restart histogram under
// prefix (e.g. "thread0"), flattening the per-provider target arrays
// to one name per provider.
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	r.Counter(prefix+".instructions", &s.Instructions)
	r.Counter(prefix+".branches", &s.Branches)
	r.Counter(prefix+".cycles", &s.Cycles)
	r.Counter(prefix+".dynamic_predicted", &s.DynamicPredicted)
	r.Counter(prefix+".dyn_correct", &s.DynCorrect)
	r.Counter(prefix+".dyn_wrong_dir", &s.DynWrongDir)
	r.Counter(prefix+".dyn_wrong_target", &s.DynWrongTarget)
	r.Counter(prefix+".surprises", &s.Surprises)
	r.Counter(prefix+".surprise_wrong", &s.SurpriseWrong)
	r.Counter(prefix+".surprise_taken_rel", &s.SurpriseTakenRel)
	r.Counter(prefix+".surprise_taken_ind", &s.SurpriseTakenInd)
	r.Counter(prefix+".bad_predictions", &s.BadPredictions)
	for i, name := range [3]string{"btb", "ctb", "crs"} {
		r.Counter(prefix+".tgt_provided."+name, &s.TgtProvided[i])
		r.Counter(prefix+".tgt_wrong."+name, &s.TgtWrong[i])
	}
	r.Counter(prefix+".dispatch_sync_stall", &s.DispatchSyncStall)
	r.Counter(prefix+".fetch_stall", &s.FetchStall)
	r.Counter(prefix+".restart_stall", &s.RestartStall)
	r.Hist(prefix+".restart_penalty", &s.RestartHist)
}

// Mispredicts returns the total mispredicted branches (the MPKI
// numerator): dynamic wrong direction or target, plus wrong static
// guesses on surprise branches.
func (s Stats) Mispredicts() int64 {
	return s.DynWrongDir + s.DynWrongTarget + s.SurpriseWrong
}

// Thread is one hardware thread's front end.
type Thread struct {
	cfg Config
	id  int
	c   *core.Core
	ic  *icache.Hierarchy
	src trace.Source
	// cur is set when src is a packed-trace cursor: the per-instruction
	// next path then calls the concrete, inlinable Cursor.Next instead
	// of dispatching through the Source interface (the monomorphized
	// replay path every packed run takes).
	cur *trace.Cursor
	// peek is the one-record lookahead buffer; kept by value so the
	// per-instruction next/consume cycle never heap-allocates.
	peek     trace.Rec
	havePeek bool

	epoch  uint64
	stream uint64

	stallUntil int64
	fetchReady int64
	curLine    zarch.Addr
	haveLine   bool

	streamEntry    zarch.Addr
	hasStreamEntry bool

	lastCtx      uint16
	lastCtxValid bool

	started bool
	done    bool
	stats   Stats

	// resolveHook/restartHook, when set, observe retired branches and
	// pipeline restarts (event-log wiring); nil costs one predictable
	// branch per event.
	resolveHook func(now int64, r trace.Rec, dynamic, correct bool)
	restartHook func(now int64, addr zarch.Addr, penalty int64)
}

// NewThread builds a front end for thread id consuming src. ic may be
// nil to disable I-cache modeling.
func NewThread(cfg Config, id int, c *core.Core, ic *icache.Hierarchy, src trace.Source) *Thread {
	t := &Thread{cfg: cfg, id: id, c: c, ic: ic, src: src}
	if cur, ok := src.(*trace.Cursor); ok {
		t.cur = cur
	}
	t.stats.RestartHist = NewRestartHist()
	return t
}

// Stats returns a copy of this thread's counters.
func (f *Thread) Stats() Stats {
	s := f.stats
	s.Done = f.done
	return s
}

// Instructions returns the retired-instruction count alone, without
// copying the whole Stats struct; the run loop polls it every cycle
// for progress (live-lock) detection.
func (f *Thread) Instructions() int64 { return f.stats.Instructions }

// SetResolveHook registers an observer of every retired branch:
// whether it was dynamically predicted and whether the prediction (or
// static guess) was fully correct.
func (f *Thread) SetResolveHook(fn func(now int64, r trace.Rec, dynamic, correct bool)) {
	f.resolveHook = fn
}

// SetRestartHook registers an observer of every pipeline restart with
// its redirect address and charged penalty.
func (f *Thread) SetRestartHook(fn func(now int64, addr zarch.Addr, penalty int64)) {
	f.restartHook = fn
}

// Done reports whether the trace is exhausted.
func (f *Thread) Done() bool { return f.done }

// ID returns the hardware thread index.
func (f *Thread) ID() int { return f.id }

func (f *Thread) next() (trace.Rec, bool) {
	if f.havePeek {
		return f.peek, true
	}
	var (
		r  trace.Rec
		ok bool
	)
	if f.cur != nil {
		r, ok = f.cur.Next()
	} else {
		r, ok = f.src.Next()
	}
	if !ok {
		return trace.Rec{}, false
	}
	f.peek, f.havePeek = r, true
	return r, true
}

func (f *Thread) consume() { f.havePeek = false }

// restart flushes the pipeline: penalty cycles, BPL restart at addr,
// stream bookkeeping reset.
func (f *Thread) restart(now int64, addr zarch.Addr, ctx uint16, penalty int64) {
	f.stallUntil = now + penalty
	f.stats.RestartStall += penalty
	f.stats.RestartHist.Observe(penalty)
	if f.restartHook != nil {
		f.restartHook(now, addr, penalty)
	}
	f.c.Restart(f.id, addr, ctx)
	f.epoch++
	f.stream = 0
	f.hasStreamEntry = false
}

// Step advances this thread by one cycle, dispatching up to
// DispatchWidth instructions within FetchBytes of fetch bandwidth.
func (f *Thread) Step(now int64) {
	if f.done {
		return
	}
	f.stats.Cycles++
	if !f.started {
		r, ok := f.next()
		if !ok {
			f.done = true
			f.c.Deactivate(f.id)
			return
		}
		f.started = true
		f.restart(now, r.Addr, r.CtxID, 0)
		return
	}
	if now < f.stallUntil || now < f.fetchReady {
		if now < f.fetchReady {
			f.stats.FetchStall++
		}
		return
	}

	bytes := 0
	for n := 0; n < f.cfg.DispatchWidth; n++ {
		r, ok := f.next()
		if !ok {
			f.done = true
			f.c.Deactivate(f.id)
			return
		}
		if bytes+int(r.Len()) > f.cfg.FetchBytes {
			break
		}

		// Context switch: full resynchronization.
		if f.ctxSwitch(now, r) {
			return
		}

		// Instruction fetch: demand-access the line.
		if f.ic != nil {
			line := f.ic.Line(r.Addr)
			if !f.haveLine || line != f.curLine {
				ready := f.ic.Access(r.Addr, now)
				f.curLine, f.haveLine = line, true
				if ready > now {
					f.fetchReady = ready
					return
				}
			}
		}

		// Strict dispatch synchronization (§IV): hold the instruction
		// until the BPL's visible output covers it.
		if !f.c.Covered(f.id, f.epoch, f.stream, r.Addr) {
			f.stats.DispatchSyncStall++
			return
		}

		// Drain bad predictions pointing at bytes we are about to pass.
		if f.handleBadPredictions(now, r) {
			return
		}

		if p := f.c.VisiblePred(f.id); p != nil && p.Epoch == f.epochOfCore() &&
			p.Stream == f.stream && p.Addr == r.Addr && r.IsBranch() {
			f.c.DropPred(f.id)
			if f.applyDynamic(now, r, p) {
				return
			}
		} else if r.IsBranch() {
			if f.applySurprise(now, r) {
				return
			}
		} else {
			f.dispatch(r)
		}
		bytes += int(r.Len())
	}
}

// epochOfCore returns the core-side epoch for matching predictions;
// core epochs advance once per Restart call, in lockstep with ours.
func (f *Thread) epochOfCore() uint64 {
	_, _, e := f.c.SearchProgress(f.id)
	return e
}

// ctxSwitch restarts on address-space changes (which the multiplexed
// workloads produce); returns true if a restart was issued.
func (f *Thread) ctxSwitch(now int64, r trace.Rec) bool {
	// The previous record's context is implicit in core state; compare
	// via prediction stream instead: the core tracks ctx per restart.
	// A cheap check: remember last seen ctx.
	if f.lastCtxValid && r.CtxID != f.lastCtx {
		f.lastCtx = r.CtxID
		f.restart(now, r.Addr, r.CtxID, f.cfg.RestartPenalty+f.cfg.QueueRefillPenalty)
		return true
	}
	f.lastCtx = r.CtxID
	f.lastCtxValid = true
	return false
}

// dispatch retires a non-branch instruction.
func (f *Thread) dispatch(r trace.Rec) {
	f.stats.Instructions++
	f.consume()
}

// handleBadPredictions pops predictions that point at already-passed or
// non-branch bytes; the IDU detects them, removes the BTB entry and
// restarts the front end (§IV). Returns true if a restart was issued.
func (f *Thread) handleBadPredictions(now int64, r trace.Rec) bool {
	for {
		p := f.c.VisiblePred(f.id)
		if p == nil || p.Epoch != f.epochOfCore() {
			return false
		}
		stale := p.Stream < f.stream ||
			(p.Stream == f.stream && p.Addr < r.Addr) ||
			(p.Stream == f.stream && p.Addr == r.Addr && !r.IsBranch())
		if !stale {
			return false
		}
		f.c.DropPred(f.id)
		f.c.BadPrediction(*p)
		f.stats.BadPredictions++
		f.restart(now, r.Addr, r.CtxID, f.cfg.BadPredPenalty)
		return true
	}
}

// applyDynamic applies a dynamic prediction to branch r. The
// prediction is passed by pointer (it is ~200 bytes and this runs once
// per dynamically predicted branch); the pointee is read-only core
// state, already consumed from the queue. Returns true if a restart
// was issued (caller must stop dispatching this cycle).
func (f *Thread) applyDynamic(now int64, r trace.Rec, p *core.Prediction) bool {
	f.stats.Instructions++
	f.stats.Branches++
	f.stats.DynamicPredicted++
	f.consume()

	out := core.Outcome{Pred: *p, Taken: r.Taken(), Target: r.Target}
	f.c.Complete(out)

	if f.resolveHook != nil {
		f.resolveHook(now, r, true, !out.Mispredicted())
	}

	if p.Taken && r.Taken() {
		prov := int(p.Tgt.Provider)
		if prov >= 0 && prov < len(f.stats.TgtProvided) {
			f.stats.TgtProvided[prov]++
			if out.WrongTarget() {
				f.stats.TgtWrong[prov]++
			}
		}
	}

	switch {
	case out.WrongDirection():
		f.stats.DynWrongDir++
		f.restart(now, r.Next(), r.CtxID, f.cfg.RestartPenalty+f.cfg.QueueRefillPenalty)
		return true
	case out.WrongTarget():
		f.stats.DynWrongTarget++
		f.restart(now, r.Target, r.CtxID, f.cfg.RestartPenalty+f.cfg.QueueRefillPenalty)
		return true
	default:
		f.stats.DynCorrect++
		if r.Taken() {
			// Follow the predictor into the next stream.
			f.stream = p.Stream + 1
			f.streamEntry = p.Addr
			f.hasStreamEntry = true
		}
		return false
	}
}

// applySurprise handles a branch with no dynamic prediction: static
// guess by opcode, penalties per §IV, completion install, and BPL
// restart when flow redirects. Returns true if dispatching must stop.
func (f *Thread) applySurprise(now int64, r trace.Rec) bool {
	f.stats.Instructions++
	f.stats.Branches++
	f.stats.Surprises++
	f.consume()

	f.c.CompleteSurprise(core.Surprise{
		Thread: f.id, Addr: r.Addr, Len: r.Len(), Kind: r.Kind(),
		Taken: r.Taken(), Target: r.Target,
		StreamEntry: f.streamEntry, HasStreamEntry: f.hasStreamEntry,
	})

	guess := r.Kind().StaticGuessTaken()
	if f.resolveHook != nil {
		f.resolveHook(now, r, false, guess == r.Taken())
	}
	switch {
	case guess != r.Taken():
		// Wrong static guess: full branch-wrong restart.
		f.stats.SurpriseWrong++
		f.restart(now, r.Next(), r.CtxID, f.cfg.RestartPenalty+f.cfg.QueueRefillPenalty)
		return true
	case r.Taken() && r.Kind().Indirect():
		// Correctly guessed taken, but the target comes from the
		// execution units: the front end shuts down and waits (§IV).
		f.stats.SurpriseTakenInd++
		f.restart(now, r.Target, r.CtxID, f.cfg.SurpriseTakenIndPenalty)
		return true
	case r.Taken():
		// Correctly guessed taken relative: front end computes the
		// target itself; short redirect bubble.
		f.stats.SurpriseTakenRel++
		f.restart(now, r.Target, r.CtxID, f.cfg.SurpriseTakenRelPenalty)
		return true
	default:
		// Correctly guessed not-taken: flow continues, no restart.
		return false
	}
}
