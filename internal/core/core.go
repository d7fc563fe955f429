package core

import (
	"zbp/internal/btb"
	"zbp/internal/cpred"
	"zbp/internal/dirpred"
	"zbp/internal/history"
	"zbp/internal/metrics"
	"zbp/internal/tgt"
	"zbp/internal/zarch"
)

// MaxThreads is the SMT width of the modeled core.
const MaxThreads = 2

// Prediction is one branch prediction presented to the IDU/ICM in the
// b5 cycle. The embedded selections snapshot everything the completion
// logic needs (the GPQ role, §IV).
type Prediction struct {
	Seq    uint64
	Thread int
	// Epoch identifies the restart generation; stale-epoch predictions
	// are discarded on restart.
	Epoch uint64
	// Stream counts taken-branch-delimited instruction streams since
	// the last restart; the IDU uses it to know how far the BPL has
	// searched (§IV synchronization).
	Stream uint64
	Addr   zarch.Addr
	Len    uint8
	Kind   zarch.BranchKind
	Taken  bool
	Target zarch.Addr
	Ctx    uint16
	Way    int
	Dir    dirpred.Selection
	Tgt    tgt.Selection
	// StreamStart is the search start address of the stream this
	// prediction was made in (the CPRED key); mispredict completions
	// use it to invalidate stale column/power predictions.
	StreamStart zarch.Addr
	// PresentedAt is the cycle the prediction becomes visible (b5).
	PresentedAt int64
	// FromBTBP marks a prediction made out of the preload buffer
	// (pre-z15 designs).
	FromBTBP bool
}

// Stats aggregates core-level events.
type Stats struct {
	Cycles             int64
	Searches           int64
	NoPredSearches     int64
	Predictions        int64
	TakenPredictions   int64
	QueueStallCycles   int64
	CPredFastRedirects int64
	CPredSlowRedirects int64
	SkootLinesSkipped  int64
	BTB2MissTriggers   int64
	BTB2Proactive      int64
	BTB2CtxPrefetch    int64
	RefreshWrites      int64
	SurpriseInstalls   int64
	BadPredictions     int64
	BTB2Suppressed     int64 // backfill triggers dropped while a transfer drains
	SurpriseInBTB2     int64 // surprises whose branch was sitting in the BTB2
	GatedButNeededCTB  int64 // multi-target hits seen while the CTB was powered down
	GatedButNeededAux  int64 // bidirectional hits seen while PHT/perceptron were powered down
	PowerGatedPHT      int64 // searches executed with the PHT powered down
	PowerGatedPerc     int64
	PowerGatedCTB      int64
	WriteQueueDrops    int64
	// StreamSearchHist distributes the number of b0 searches each
	// closed stream needed before its exit was found (the quantity the
	// CPRED learns, §IV).
	StreamSearchHist metrics.Hist
}

// NewStreamSearchHist returns the searches-per-stream histogram shape.
func NewStreamSearchHist() metrics.Hist {
	return metrics.NewHist(1, 2, 3, 4, 6, 8, 12)
}

// Register exposes every counter and the stream histogram under
// prefix (e.g. "core").
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	r.Counter(prefix+".cycles", &s.Cycles)
	r.Counter(prefix+".searches", &s.Searches)
	r.Counter(prefix+".nopred_searches", &s.NoPredSearches)
	r.Counter(prefix+".predictions", &s.Predictions)
	r.Counter(prefix+".taken_predictions", &s.TakenPredictions)
	r.Counter(prefix+".queue_stall_cycles", &s.QueueStallCycles)
	r.Counter(prefix+".cpred_fast_redirects", &s.CPredFastRedirects)
	r.Counter(prefix+".cpred_slow_redirects", &s.CPredSlowRedirects)
	r.Counter(prefix+".skoot_lines_skipped", &s.SkootLinesSkipped)
	r.Counter(prefix+".btb2_miss_triggers", &s.BTB2MissTriggers)
	r.Counter(prefix+".btb2_proactive", &s.BTB2Proactive)
	r.Counter(prefix+".btb2_ctx_prefetch", &s.BTB2CtxPrefetch)
	r.Counter(prefix+".refresh_writes", &s.RefreshWrites)
	r.Counter(prefix+".surprise_installs", &s.SurpriseInstalls)
	r.Counter(prefix+".bad_predictions", &s.BadPredictions)
	r.Counter(prefix+".btb2_suppressed", &s.BTB2Suppressed)
	r.Counter(prefix+".surprise_in_btb2", &s.SurpriseInBTB2)
	r.Counter(prefix+".gated_but_needed_ctb", &s.GatedButNeededCTB)
	r.Counter(prefix+".gated_but_needed_aux", &s.GatedButNeededAux)
	r.Counter(prefix+".power_gated_pht", &s.PowerGatedPHT)
	r.Counter(prefix+".power_gated_perc", &s.PowerGatedPerc)
	r.Counter(prefix+".power_gated_ctb", &s.PowerGatedCTB)
	r.Counter(prefix+".write_queue_drops", &s.WriteQueueDrops)
	r.Hist(prefix+".stream_searches", &s.StreamSearchHist)
}

// thread is the per-thread search state of the lookahead pipeline.
type thread struct {
	active bool
	ctx    uint16

	searchAddr zarch.Addr
	nextB0     int64
	epoch      uint64
	stream     uint64

	gpvSpec history.GPV // speculative (search-time) path history
	gpvArch history.GPV // architectural (completion-time) path history

	// Current-stream bookkeeping.
	streamStart      zarch.Addr // search start of this stream (CPRED key)
	searchesInStream int
	firstHitSearch   int // search index of the first BTB hit; -1 none yet
	entryBranch      zarch.Addr
	hasEntryBranch   bool
	entrySkip        int
	streamNeeds      cpred.PowerMask
	cpredRes         cpred.Result
	powered          cpred.PowerMask

	noPredRun      int
	noPredRunStart zarch.Addr // line where the current no-hit run began
	// predQ is the prediction queue, consumed from predHead: pops
	// advance the head instead of copying the tail down, so the
	// per-instruction consume path never moves ~200-byte Predictions.
	// Space ahead of the head is reclaimed lazily before an append
	// would outgrow the fixed-capacity backing array.
	predQ    []Prediction
	predHead int
}

// queueLen returns the number of queued predictions (visible or not).
func (th *thread) queueLen() int { return len(th.predQ) - th.predHead }

// Core is the asynchronous lookahead branch predictor.
type Core struct {
	cfg Config

	btb1  *btb.Table
	btb2  *btb.Table
	btbp  *btb.Preload
	stage *btb.Stage
	dir   *dirpred.Unit
	tgt   *tgt.Unit
	cpred *cpred.CPRED

	threads [MaxThreads]thread
	clock   int64
	seq     uint64

	writeQ []btb.Info

	refreshRun int

	// Sliding window of recent surprise-completion cycles for the
	// proactive BTB2 trigger.
	surpriseTimes []int64

	lastCompletedSeq uint64
	btb2ReadyAt      int64
	stats            Stats

	// mergedBuf is the reusable per-search merge buffer of BTB1+BTBP
	// hits; issueSearch runs every cycle and must not allocate.
	mergedBuf []mhit

	// searchHook, when set, observes every b0 index (thread, line).
	// The simulator wires it to the I-cache prefetcher: the lookahead
	// search stream is the instruction prefetch stream (§IV).
	searchHook func(t int, line zarch.Addr)
	// predictHook, when set, observes every generated prediction (the
	// verification read-side monitor, §VII).
	predictHook func(Prediction)
	// surpriseHook, when set, observes every completed surprise and
	// whether its install was queued (write-side monitor, §VII).
	surpriseHook func(s Surprise, queued bool)
}

// SetPredictHook registers an observer of every generated prediction.
func (c *Core) SetPredictHook(fn func(Prediction)) { c.predictHook = fn }

// SetSurpriseHook registers an observer of surprise completions.
func (c *Core) SetSurpriseHook(fn func(s Surprise, queued bool)) { c.surpriseHook = fn }

// SetSearchHook registers an observer of every search index.
func (c *Core) SetSearchHook(fn func(t int, line zarch.Addr)) { c.searchHook = fn }

// ObserveBTB1 registers a white-box observer of every BTB1 write
// (verification harness, §VII).
func (c *Core) ObserveBTB1(fn func(btb.Event)) { c.btb1.SetObserver(fn) }

// ObserveBTB2 registers a white-box observer of every BTB2 write; a
// no-op when the second level is disabled.
func (c *Core) ObserveBTB2(fn func(btb.Event)) {
	if c.btb2 != nil {
		c.btb2.SetObserver(fn)
	}
}

// New builds a predictor for cfg.
func New(cfg Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg:   cfg,
		btb1:  btb.New(cfg.BTB1),
		dir:   dirpred.New(cfg.Dir),
		tgt:   tgt.New(cfg.Tgt),
		cpred: cpred.New(cfg.CPred),
		stage: btb.NewStage(cfg.StageCap),
	}
	if cfg.BTB2Enabled {
		c.btb2 = btb.New(cfg.BTB2)
	}
	if cfg.BTBPEntries > 0 {
		c.btbp = btb.NewPreload(cfg.BTBPEntries)
	}
	for t := range c.threads {
		c.threads[t].gpvSpec = history.New(cfg.GPVDepth)
		c.threads[t].gpvArch = history.New(cfg.GPVDepth)
		c.threads[t].firstHitSearch = -1
		c.threads[t].predQ = make([]Prediction, 0, cfg.PredQueueCap)
	}
	c.writeQ = make([]btb.Info, 0, cfg.WriteQueueCap)
	c.stats.StreamSearchHist = NewStreamSearchHist()
	return c
}

// Config returns the active configuration.
func (c *Core) Config() Config { return c.cfg }

// Clock returns the current cycle.
func (c *Core) Clock() int64 { return c.clock }

// Stats returns a copy of the core counters.
func (c *Core) Stats() Stats { return c.stats }

// BTB1Stats / BTB2Stats / DirStats / TgtStats / CPredStats expose the
// substructure counters for experiments and verification.
func (c *Core) BTB1Stats() btb.Stats { return c.btb1.Stats() }

// BTB2Stats returns the second-level counters (zero value if disabled).
func (c *Core) BTB2Stats() btb.Stats {
	if c.btb2 == nil {
		return btb.Stats{}
	}
	return c.btb2.Stats()
}

// DirStats returns direction-unit counters.
func (c *Core) DirStats() dirpred.Stats { return c.dir.Stats() }

// TgtStats returns target-unit counters.
func (c *Core) TgtStats() tgt.Stats { return c.tgt.Stats() }

// CPredStats returns column-predictor counters.
func (c *Core) CPredStats() cpred.Stats { return c.cpred.Stats() }

// Restart redirects a thread's search to addr in address space ctx:
// the post-flush resynchronization point of the asynchronous predictor
// (§IV). All queued and in-flight predictions for the thread die, the
// speculative path history is restored from the architectural one, and
// a context change optionally triggers a proactive BTB2 prefetch.
func (c *Core) Restart(t int, addr zarch.Addr, ctx uint16) {
	th := &c.threads[t]
	ctxChanged := th.active && ctx != th.ctx
	th.active = true
	th.epoch++
	th.stream = 0
	th.predQ = th.predQ[:0]
	th.predHead = 0
	th.searchAddr = addr
	th.nextB0 = c.clock + 1
	th.gpvSpec = th.gpvArch
	th.ctx = ctx
	th.noPredRun = 0
	c.enterStream(t, addr, 0, zarch.Addr(0), false)
	c.dir.Flush(c.lastCompletedSeq + 1)
	c.tgt.RestartPredStack()
	if ctxChanged && c.cfg.CtxPrefetch && c.btb2 != nil {
		c.stats.BTB2CtxPrefetch++
		c.btb2Search(addr)
	}
}

// Deactivate stops a thread's searching (end of its instruction feed).
func (c *Core) Deactivate(t int) { c.threads[t].active = false }

// enterStream resets per-stream bookkeeping after a redirect or
// restart.
func (c *Core) enterStream(t int, start zarch.Addr, skip int, entry zarch.Addr, hasEntry bool) {
	th := &c.threads[t]
	if th.searchesInStream > 0 {
		// Close out the previous stream: its search count is the
		// quantity the CPRED learns (zero-search closes are restart
		// artifacts, not streams).
		c.stats.StreamSearchHist.Observe(int64(th.searchesInStream))
	}
	th.streamStart = start
	th.searchesInStream = 0
	th.firstHitSearch = -1
	th.entryBranch = entry
	th.hasEntryBranch = hasEntry
	th.entrySkip = skip
	th.streamNeeds = 0
	th.cpredRes = c.cpred.Lookup(start)
	if th.cpredRes.Hit {
		th.powered = th.cpredRes.Power
	} else {
		th.powered = cpred.PowerAll
	}
}

// portAvailable implements the search-port arbitration (§IV): on z15's
// shared 64B port, two active threads alternate cycles; on the pre-z15
// dual 32B ports each thread searches every cycle.
func (c *Core) portAvailable(t int) bool {
	if !c.cfg.SMT2SharedPort {
		return true
	}
	other := 1 - t
	if t >= MaxThreads || !c.threads[other].active {
		return true
	}
	return c.clock%2 == int64(t)
}

// Cycle advances the predictor by one cycle: drain one write, issue
// searches, age queues.
func (c *Core) Cycle() {
	c.clock++
	c.stats.Cycles++
	c.drainWrites()
	for t := range c.threads {
		th := &c.threads[t]
		if !th.active || c.clock < th.nextB0 || !c.portAvailable(t) {
			continue
		}
		if th.queueLen() >= c.cfg.PredQueueCap {
			// Consumers are full: stop sending (§IV back-pressure).
			c.stats.QueueStallCycles++
			continue
		}
		for i := 0; i < c.cfg.SearchesPerCycleST; i++ {
			if c.clock < th.nextB0 || th.queueLen() >= c.cfg.PredQueueCap {
				break
			}
			c.issueSearch(t)
		}
	}
}

// drainWrites retires one write-queue entry per cycle through the
// read-analyze-write port (§IV): completion/surprise installs first,
// then staged BTB2 transfers.
func (c *Core) drainWrites() {
	if len(c.writeQ) > 0 {
		info := c.writeQ[0]
		copy(c.writeQ, c.writeQ[1:])
		c.writeQ = c.writeQ[:len(c.writeQ)-1]
		c.installBTB1(info, false)
		return
	}
	if info, ok := c.stage.Pop(); ok {
		c.installBTB1(info, true)
	}
}

// installBTB1 performs the read-before-write duplicate check and
// install (§IV). Victims are assumed present in the BTB2 (semi-
// inclusive, §III); on BTBP designs the victim is captured instead.
func (c *Core) installBTB1(info btb.Info, fromStage bool) {
	if c.cfg.InclusiveInstall && c.btb2 != nil && !fromStage {
		// z15 semi-inclusive invariant (§III): the BTB2 approximates a
		// superset of the BTB1, so new learning lands in both levels;
		// the periodic refresh keeps the BTB2 copy's state current.
		c.btb2.Install(info)
	}
	if _, ok := c.btb1.Lookup(info.Addr); ok {
		if fromStage {
			// The read-before-write check suppresses duplicate BTB2
			// transfers entirely (§IV) -- crucially without touching
			// recency, so repeated backfill cannot poison the LRU.
			return
		}
		// Surprise/update writes refresh the payload in place.
		c.btb1.Update(info.Addr, func(i *btb.Info) { *i = info })
		return
	}
	victim, evicted := c.btb1.Install(info)
	if evicted && c.btbp != nil {
		// Pre-z15: the BTBP is the victim buffer (§III); its own
		// victims flow onward into the BTB2 (semi-exclusive hierarchy).
		if pv, pev := c.btbp.Install(victim); pev && c.btb2 != nil {
			c.btb2.Install(pv)
		}
	}
}

// pushWrite enqueues a BTB1 install, dropping (with a count) on
// overflow.
func (c *Core) pushWrite(info btb.Info) bool {
	if len(c.writeQ) >= c.cfg.WriteQueueCap {
		c.stats.WriteQueueDrops++
		return false
	}
	c.writeQ = append(c.writeQ, info)
	return true
}

// btb2Search performs one bulk second-level search, pushing results
// through the staging queue (§III). Only one bulk search is in flight
// at a time: while the staging queue is still draining a previous
// transfer, new triggers are suppressed, which also models the BTB2
// being "only accessed when content is thought to be missing".
func (c *Core) btb2Search(from zarch.Addr) {
	if c.btb2 == nil {
		return
	}
	if c.stage.Len() > 0 || c.clock < c.btb2ReadyAt {
		c.stats.BTB2Suppressed++
		return
	}
	// A bulk search of the region takes time proportional to the lines
	// scanned before results start streaming out.
	c.btb2ReadyAt = c.clock + int64(c.cfg.BTB2RegionLines/8+4)
	found := c.btb2.SearchRegion(from, c.cfg.BTB2RegionLines, c.cfg.BTB2MaxBranches)
	for _, info := range found {
		if c.btbp != nil {
			// Pre-z15: BTB2 hits land in the preload buffer.
			c.btbp.Install(info)
		} else {
			c.stage.Push(info)
		}
	}
}

// issueSearch performs one b0 index: gathers the line's predictions,
// applies direction/target selection, schedules presentation at b5 and
// computes the next index address and cycle.
func (c *Core) issueSearch(t int) {
	th := &c.threads[t]
	c.stats.Searches++
	b0 := c.clock
	lineBytes := zarch.Addr(c.cfg.BTB1.LineBytes())
	line := c.cfg.BTB1.Line(th.searchAddr)
	fromOff := th.searchAddr - line
	if c.searchHook != nil {
		c.searchHook(t, line)
	}

	hits := c.btb1.SearchLine(line)
	merged := c.mergedBuf[:0]
	for _, h := range hits {
		if h.Addr-line >= fromOff {
			merged = append(merged, mhit{Hit: h})
		}
	}
	if c.btbp != nil {
		// Pre-z15: predictions are made out of both BTB1 and BTBP (§III).
		for _, info := range c.btbp.SearchLine(line, int(lineBytes)) {
			if info.Addr-line < fromOff {
				continue
			}
			dup := false
			for _, m := range merged {
				if m.Addr == info.Addr {
					dup = true
					break
				}
			}
			if !dup {
				merged = append(merged, mhit{Hit: btb.Hit{Info: info}, fromBTBP: true})
				// Insertion keeps address order.
				for i := len(merged) - 1; i > 0 && merged[i].Addr < merged[i-1].Addr; i-- {
					merged[i], merged[i-1] = merged[i-1], merged[i]
				}
			}
		}
	}

	c.mergedBuf = merged

	anyHit := len(merged) > 0
	if anyHit && th.firstHitSearch < 0 {
		th.firstHitSearch = th.searchesInStream
	}
	th.searchesInStream++

	// Power-gating accounting: a search that runs with structures
	// gated is a saving (§IV/§VI).
	if !th.powered.Has(cpred.PowerPHT) {
		c.stats.PowerGatedPHT++
	}
	if !th.powered.Has(cpred.PowerPerceptron) {
		c.stats.PowerGatedPerc++
	}
	if !th.powered.Has(cpred.PowerCTB) {
		c.stats.PowerGatedCTB++
	}

	presentAt := b0 + int64(c.cfg.PipeStages) - 1
	var takenHit *btb.Hit
	for i := range merged {
		h := &merged[i].Hit
		if h.Bidirectional {
			th.streamNeeds |= cpred.PowerPHT | cpred.PowerPerceptron
			if !th.powered.Has(cpred.PowerPHT) {
				c.stats.GatedButNeededAux++
			}
		}
		if h.MultiTarget {
			th.streamNeeds |= cpred.PowerCTB
			if !th.powered.Has(cpred.PowerCTB) {
				c.stats.GatedButNeededCTB++
			}
		}
		c.seq++
		sel := c.dir.Select(dirpred.Input{
			Addr: h.Addr, Way: h.Way, GPV: th.gpvSpec, Seq: c.seq,
			Conditional:   h.Kind.Conditional(),
			Bidirectional: h.Bidirectional,
			BHT:           h.BHT,
			AllowAux:      th.powered.Has(cpred.PowerPHT) || th.powered.Has(cpred.PowerPerceptron),
		})
		pred := Prediction{
			Seq: c.seq, Thread: t, Epoch: th.epoch, Stream: th.stream,
			Addr: h.Addr, Len: h.Len, Kind: h.Kind,
			Taken: sel.Taken, Ctx: th.ctx, Way: h.Way, Dir: sel,
			StreamStart: th.streamStart,
			PresentedAt: presentAt, FromBTBP: merged[i].fromBTBP,
		}
		if sel.Taken {
			ts := c.tgt.Select(h.Info, th.ctx, th.gpvSpec, th.powered.Has(cpred.PowerCTB))
			pred.Target = ts.Target
			pred.Tgt = ts
			takenHit = h
		}
		if pred.FromBTBP {
			// Qualified BTBP hit: promote into the BTB1 (§III).
			if info, ok := c.btbp.Promote(h.Addr); ok {
				c.pushWrite(info)
			}
		}
		if len(th.predQ) == cap(th.predQ) && th.predHead > 0 {
			// Reclaim consumed space so the append below cannot
			// outgrow (and reallocate) the fixed-capacity array.
			n := copy(th.predQ, th.predQ[th.predHead:])
			th.predQ = th.predQ[:n]
			th.predHead = 0
		}
		th.predQ = append(th.predQ, pred)
		if c.predictHook != nil {
			c.predictHook(pred)
		}
		c.stats.Predictions++
		if sel.Taken {
			c.stats.TakenPredictions++
			break
		}
	}

	if takenHit != nil {
		c.finishStream(t, b0, takenHit, &th.predQ[len(th.predQ)-1])
		return
	}

	// Sequential continuation.
	if !anyHit {
		c.stats.NoPredSearches++
		if th.noPredRun == 0 {
			th.noPredRunStart = line
		}
		th.noPredRun++
		if th.noPredRun == c.cfg.BTB2MissRun && c.btb2 != nil {
			c.stats.BTB2MissTriggers++
			// Search from where content went missing, not from the
			// third miss: the execution path enters the region at the
			// start of the run.
			c.btb2Search(th.noPredRunStart)
		}
		if c.cfg.RefreshRun > 0 && c.btb2 != nil {
			c.refreshRun++
			if c.refreshRun >= c.cfg.RefreshRun {
				c.refreshRun = 0
				if victim, ok := c.btb1.LRUVictim(line); ok {
					c.btb2.Install(victim)
					c.stats.RefreshWrites++
				}
			}
		}
	} else {
		th.noPredRun = 0
	}
	th.searchAddr = line + lineBytes
	th.nextB0 = b0 + 1
}

// finishStream handles a predicted-taken branch ending the current
// stream: SKOOT learning, CPRED update/verify, redirect timing
// (figures 4-7), and entry into the target stream.
func (c *Core) finishStream(t int, b0 int64, h *btb.Hit, pred *Prediction) {
	th := &c.threads[t]
	target := pred.Target

	// SKOOT: compute the learned skip for the *next* visit of the
	// entry branch of the stream we are leaving (§IV).
	if c.cfg.SkootEnabled && th.hasEntryBranch && th.firstHitSearch >= 0 {
		observed := th.entrySkip + th.firstHitSearch
		if observed > int(^uint8(0))-1 {
			observed = int(^uint8(0)) - 1
		}
		c.btb1.Update(th.entryBranch, func(i *btb.Info) {
			if i.Skoot == btb.SkootUnknown || uint8(observed) < i.Skoot {
				i.Skoot = uint8(observed)
			}
		})
	}

	// Next stream start, including this branch's learned skip.
	skip := 0
	if c.cfg.SkootEnabled && h.Skoot != btb.SkootUnknown {
		skip = int(h.Skoot)
	}
	var start zarch.Addr
	if skip > 0 {
		start = c.cfg.BTB1.Line(target) + zarch.Addr(skip*c.cfg.BTB1.LineBytes())
		c.stats.SkootLinesSkipped += int64(skip)
	} else {
		start = target
	}

	// CPRED learn + verify + redirect timing.
	searches := th.searchesInStream
	c.cpred.Verify(th.cpredRes, searches, start)
	fast := th.cpredRes.Hit &&
		int(th.cpredRes.Searches) == searches &&
		th.cpredRes.Redirect == start
	c.cpred.Update(th.streamStart, searches, h.Way, start, th.streamNeeds|neededBy(h))
	if fast {
		th.nextB0 = b0 + int64(c.cfg.CPredReindexStage)
		c.stats.CPredFastRedirects++
	} else {
		th.nextB0 = b0 + int64(c.cfg.PipeStages) - 1
		c.stats.CPredSlowRedirects++
	}

	th.gpvSpec = th.gpvSpec.Push(pred.Addr)
	th.stream++
	th.noPredRun = 0
	th.searchAddr = start
	c.enterStream(t, start, skip, pred.Addr, true)
}

// mhit is one merged search hit: a BTB1 hit or a BTBP-provided entry.
type mhit struct {
	btb.Hit
	fromBTBP bool
}

// neededBy returns the power needs implied by the stream-exiting
// branch itself.
func neededBy(h *btb.Hit) cpred.PowerMask {
	var m cpred.PowerMask
	if h.Bidirectional {
		m |= cpred.PowerPHT | cpred.PowerPerceptron
	}
	if h.MultiTarget {
		m |= cpred.PowerCTB
	}
	return m
}

// VisiblePred returns a pointer to the oldest visible prediction, or
// nil when none is presentable this cycle. This is the copy-free peek
// the per-instruction dispatch path uses: Prediction is ~200 bytes, so
// peeking by value would move it on every dispatched instruction. The
// pointee is owned by the core and must be treated as read-only; it
// stays valid across DropPred but not across the next Cycle or Restart.
func (c *Core) VisiblePred(t int) *Prediction {
	th := &c.threads[t]
	if th.predHead >= len(th.predQ) {
		return nil
	}
	p := &th.predQ[th.predHead]
	if p.PresentedAt > c.clock {
		return nil
	}
	return p
}

// PopPred consumes the oldest visible prediction.
func (c *Core) PopPred(t int) (Prediction, bool) {
	p := c.VisiblePred(t)
	if p == nil {
		return Prediction{}, false
	}
	res := *p
	c.DropPred(t)
	return res, true
}

// DropPred consumes the oldest visible prediction without copying it
// out; it is a no-op when nothing is visible. Pointers obtained from
// VisiblePred before the drop stay readable afterwards (the queue head
// only advances; nothing is overwritten until the core cycles again).
func (c *Core) DropPred(t int) {
	if c.VisiblePred(t) == nil {
		return
	}
	th := &c.threads[t]
	th.predHead++
	if th.predHead == len(th.predQ) {
		th.predQ = th.predQ[:0]
		th.predHead = 0
	}
}

// SearchProgress reports how far the BPL has searched on a thread: the
// current stream index and the next un-searched address within it.
// The IDU uses this to know whether predictions may still be coming
// for an address (§IV dispatch synchronization).
func (c *Core) SearchProgress(t int) (stream uint64, searchedTo zarch.Addr, epoch uint64) {
	th := &c.threads[t]
	return th.stream, th.searchAddr, th.epoch
}

// QueueLen returns the number of queued predictions (visible or not).
func (c *Core) QueueLen(t int) int { return c.threads[t].queueLen() }

// Covered reports whether the BPL's visible output covers address addr
// on the given stream: the search has passed it AND every prediction at
// or before it has already been presented. This is the strict dispatch
// synchronization introduced on z13 (§IV): the IDU holds instructions
// until branch prediction has had the chance to apply.
func (c *Core) Covered(t int, epoch, stream uint64, addr zarch.Addr) bool {
	th := &c.threads[t]
	if th.epoch != epoch {
		// A restart happened; the caller is about to resynchronize.
		return true
	}
	if th.stream < stream || (th.stream == stream && th.searchAddr <= addr) {
		return false
	}
	for i := th.predHead; i < len(th.predQ); i++ {
		p := &th.predQ[i]
		if p.PresentedAt > c.clock &&
			(p.Stream < stream || (p.Stream == stream && p.Addr <= addr)) {
			return false
		}
	}
	return true
}

// Preload writes a branch directly into a predictor array, bypassing
// the queues: level 1 is the BTB1, level 2 the BTB2. This mirrors the
// §VII verification methodology, where arrays are preloaded to reach
// states that would otherwise take many cycles to build.
func (c *Core) Preload(level int, info btb.Info) {
	switch level {
	case 1:
		c.btb1.Install(info)
	case 2:
		if c.btb2 != nil {
			c.btb2.Install(info)
		}
	default:
		panic("core: Preload level must be 1 or 2")
	}
}

// BTB1Lookup exposes first-level content for white-box monitors and
// tests.
func (c *Core) BTB1Lookup(addr zarch.Addr) (btb.Info, bool) {
	return c.btb1.Lookup(addr)
}

// BTB2Occupancy returns the number of valid BTB2 entries (0 when the
// level is disabled).
func (c *Core) BTB2Occupancy() int {
	if c.btb2 == nil {
		return 0
	}
	return c.btb2.Occupancy()
}

// BTB2Lookup exposes second-level content for white-box monitors.
func (c *Core) BTB2Lookup(addr zarch.Addr) (btb.Info, bool) {
	if c.btb2 == nil {
		return btb.Info{}, false
	}
	return c.btb2.Lookup(addr)
}
