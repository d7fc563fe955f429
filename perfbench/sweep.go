package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"zbp/internal/btb"
	"zbp/internal/core"
	"zbp/internal/cpred"
	"zbp/internal/dirpred"
	"zbp/internal/frontend"
	"zbp/internal/history"
	"zbp/internal/icache"
	"zbp/internal/sat"
	"zbp/internal/sim"
	"zbp/internal/tgt"
	"zbp/internal/trace"
	"zbp/internal/workload"
	"zbp/internal/zarch"
)

// sweep-local: one goroutine runs every cell of a fixed design-space
// grid through the simulator library, closed loop, on traces
// materialized once in setup.

const (
	sweepBudget     = 40_000 // instructions per hardware thread per cell
	sweepTinyBudget = 3_000
	// sweepVariants: each run cycles through this many trace seeds per
	// cell, so one seed's traces do not set the run's figures.
	sweepVariants = 4
	// sampleEvery: the traced driver times one cycle in this many,
	// chosen pseudo-randomly so the sample does not alias the SMT2
	// port alternation.
	sampleEvery = 8
)

// gridCell is one simulation: a machine preset and one workload per
// hardware thread.
type gridCell struct {
	config    string
	workloads []string
}

func (c gridCell) name() string {
	if len(c.workloads) == 2 {
		return c.config + "-smt2-" + c.workloads[0] + "-" + c.workloads[1]
	}
	return c.config + "-" + c.workloads[0]
}

// traceKeys follows the repository's SMT2 convention: thread i replays
// its workload at seed+i.
func (c gridCell) traceKeys(seed uint64) []traceKey {
	keys := make([]traceKey, len(c.workloads))
	for i, w := range c.workloads {
		keys[i] = traceKey{w, seed + uint64(i)}
	}
	return keys
}

type traceKey struct {
	name string
	seed uint64
}

// sweepTask is one cell on one trace seed.
type sweepTask struct {
	cell gridCell
	seed uint64
}

// sweepTasks is the order of one pass: every cell of the grid on each
// of the run's trace seeds in turn.
func sweepTasks(grid []gridCell, seed uint64) []sweepTask {
	var ts []sweepTask
	for v := uint64(0); v < sweepVariants; v++ {
		for _, c := range grid {
			ts = append(ts, sweepTask{c, seed*100 + 10*v})
		}
	}
	return ts
}

// sweepGrid is {z15, z14} x {loops, lspr-large, micro, interp} single
// thread plus one z15 SMT2 cell. loops fits in the BTB1; lspr-large
// overflows into the BTB2/BTBP and misses the I-cache.
func sweepGrid() []gridCell {
	var g []gridCell
	for _, c := range []string{"z15", "z14"} {
		for _, w := range []string{"loops", "lspr-large", "micro", "interp"} {
			g = append(g, gridCell{c, []string{w}})
		}
	}
	return append(g, gridCell{"z15", []string{"lspr", "micro"}})
}

func simLayerMetrics() []metricDef {
	var m []metricDef
	for _, c := range sweepGrid() {
		m = append(m, metricDef{"sim.ns_per_instr." + c.name(), "ns"})
	}
	return append(m, []metricDef{
		{"sim.allocs_per_minstr", "1/Minstr"},
		{"sim.bytes_per_minstr", "B/Minstr"},
		{"sim.trace_overhead", "ratio"},
		{"model.cycles", "count"},
		{"model.mispredicts", "count"},
		{"core.cycle_ns", "ns"},
		{"core.share", "ratio"},
		{"frontend.step_ns", "ns"},
		{"frontend.share", "ratio"},
		{"icache.tick_ns", "ns"},
		{"icache.prefetch_ns", "ns"},
		{"icache.share", "ratio"},
		{"trace.share", "ratio"},
		{"sim.loop_share", "ratio"},
		{"btb1.search_ns", "ns"},
		{"btb2.search_ns", "ns"},
		{"btb1.searches_per_instr", "1/instr"},
		{"btb2.searches_per_instr", "1/instr"},
		{"dirpred.select_ns", "ns"},
		{"dirpred.resolve_ns", "ns"},
		{"tgt.select_ns", "ns"},
		{"cpred.lookup_ns", "ns"},
		{"core.unattributed_share", "ratio"},
		{"trace.next_ns", "ns"},
		{"workload.materialize_ns_per_instr", "ns"},
	}...)
}

// sweepInputs are the materialized traces of one grid.
type sweepInputs struct {
	budget int
	traces map[traceKey]*trace.Packed
	matNs  float64 // materialization cost per instruction
}

func materializeGrid(tasks []sweepTask, budget int) (*sweepInputs, error) {
	in := &sweepInputs{budget: budget, traces: map[traceKey]*trace.Packed{}}
	t0 := time.Now()
	for _, t := range tasks {
		for _, k := range t.cell.traceKeys(t.seed) {
			if in.traces[k] != nil {
				continue
			}
			p, err := workload.MakePacked(k.name, k.seed, budget)
			if err != nil {
				return nil, err
			}
			in.traces[k] = p
		}
	}
	in.matNs = float64(time.Since(t0)) / float64(len(in.traces)*budget)
	return in, nil
}

// sources returns fresh cursors over a cell's traces.
func (in *sweepInputs) sources(c gridCell, seed uint64) []trace.Source {
	keys := c.traceKeys(seed)
	srcs := make([]trace.Source, len(keys))
	for i, k := range keys {
		cur := in.traces[k].Cursor()
		srcs[i] = &cur
	}
	return srcs
}

func simConfig(name string) (sim.Config, error) {
	gen, err := core.ByName(name)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.ForGeneration(gen), nil
}

// run simulates one cell the way the library's callers do:
// sim.RunWorkloadCtx on a packed cursor, sim.New(...).RunCtx for SMT2.
func (in *sweepInputs) run(ctx context.Context, t sweepTask) (sim.Result, error) {
	cfg, err := simConfig(t.cell.config)
	if err != nil {
		return sim.Result{}, err
	}
	srcs := in.sources(t.cell, t.seed)
	if len(srcs) == 1 {
		return sim.RunWorkloadCtx(ctx, cfg, srcs[0], in.budget)
	}
	return sim.New(cfg, srcs).RunCtx(ctx, 0)
}

// cellRef is a cell's library reference, computed in setup.
type cellRef struct {
	res   sim.Result
	stats []byte
}

func sweepRefs(ctx context.Context, in *sweepInputs, tasks []sweepTask) ([]cellRef, error) {
	refs := make([]cellRef, len(tasks))
	for i, t := range tasks {
		c := t.cell
		res, err := in.run(ctx, t)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.name(), err)
		}
		if res.Truncated || res.Instructions() != int64(in.budget*len(c.workloads)) {
			return nil, fmt.Errorf("reference %s: retired %d of %d instructions (truncated %v)",
				c.name(), res.Instructions(), in.budget*len(c.workloads), res.Truncated)
		}
		b, err := res.StatsJSON()
		if err != nil {
			return nil, err
		}
		refs[i] = cellRef{res, b}
	}
	return refs, nil
}

// sameResult is the untraced output check: the cell retired its full
// budget untruncated with exactly the reference statistics.
func sameResult(got sim.Result, ref cellRef) bool {
	got.FastCore = ref.res.FastCore
	return !got.Truncated && reflect.DeepEqual(got, ref.res)
}

func runSweepLocal(ctx context.Context, o options) (*report, error) {
	tasks := sweepTasks(sweepGrid(), o.seed)
	budget := sweepBudget
	if o.tiny {
		budget = sweepTinyBudget
	}
	// Set-up is short here, so it is repeated more often for a steady median.
	in, release, setupS, err := medianSetup(5, func() (*sweepInputs, func(), error) {
		in, err := materializeGrid(tasks, budget)
		return in, func() {}, err
	})
	defer release()
	if err != nil {
		return nil, err
	}
	refs, err := sweepRefs(ctx, in, tasks)
	if err != nil {
		return nil, err
	}
	rep := newReport(o.trace)
	if o.trace {
		return rep, sweepTraced(ctx, o, in, tasks, refs, rep)
	}

	mem := startMemSampler()
	var (
		ops   []timedOp
		instr int64
	)
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(o.dur)
	for len(ops) == 0 || time.Now().Before(deadline) {
		for i, t := range tasks {
			t0 := time.Now()
			res, err := in.run(ctx, t)
			d := time.Since(t0)
			if err != nil {
				mem.finish(start)
				return nil, err
			}
			rep.check(sameResult(res, refs[i]), t.cell.name()+": result differs from the reference")
			ops = append(ops, timedOp{t0, ms(d)})
			instr += res.Instructions()
		}
	}
	cpu := cpuSeconds() - cpu0
	phase := time.Since(start)
	rep.set("setup_s", setupS)
	rep.set("mem_peak_mb", mem.finish(start))
	rep.set("sim_minstr_per_s", float64(instr)/cpu/1e6)
	rate := windowedRate(ops, start, phase, timeWindows)
	rep.set("cells_per_s", rate)
	rep.set("max_rate_rps", rate)
	rep.set("lat_p50_ms", windowedQuantile(ops, start, phase, timeWindows, 0.50))
	rep.set("lat_p99_ms", windowedQuantile(ops, start, phase, timeWindows, 0.99))
	return rep, nil
}

// --- traced run -----------------------------------------------------------

// layerSample accumulates the sampled per-cycle layer timings of one
// traced driver run. Times have the clock-read cost removed.
type layerSample struct {
	cycles, sampled, steps, pfCalls int64
	cycleNs, stepNs, tickNs, pfNs   int64
}

func (a *layerSample) add(b layerSample) {
	a.cycles += b.cycles
	a.sampled += b.sampled
	a.steps += b.steps
	a.pfCalls += b.pfCalls
	a.cycleNs += b.cycleNs
	a.stepNs += b.stepNs
	a.tickNs += b.tickNs
	a.pfNs += b.pfNs
}

// estimates scales the sampled cycles to the whole run: the core's own
// time (Cycle minus the prefetch calls it makes through the search
// hook), the front end's steps, the I-cache tick and prefetch.
func (a layerSample) estimates(ovh int64) (coreSelf, step, tick, pf float64) {
	if a.sampled == 0 {
		return 0, 0, 0, 0
	}
	scale := float64(a.cycles) / float64(a.sampled)
	coreSelf = float64(a.cycleNs-a.pfNs-2*ovh*a.pfCalls) * scale
	return coreSelf, float64(a.stepNs) * scale, float64(a.tickNs) * scale, float64(a.pfNs) * scale
}

// btbOp is one recorded BTB access: a search of a line, or a write.
type btbOp struct {
	kind uint8
	line zarch.Addr
	info btb.Info
}

const (
	opSearch uint8 = iota
	opInstall
	opInvalidate
)

// streamRecorder captures the BTB search and write streams of a run
// through the core's search hook and BTB observers.
type streamRecorder struct {
	btb1, btb2 []btbOp
	lines      []zarch.Addr
}

func (r *streamRecorder) search(line zarch.Addr) {
	r.btb1 = append(r.btb1, btbOp{kind: opSearch, line: line})
	r.lines = append(r.lines, line)
}

func writeOp(e btb.Event) (btbOp, bool) {
	switch e.Kind {
	case btb.EvInstall, btb.EvUpdate:
		return btbOp{kind: opInstall, info: e.Info}, true
	case btb.EvInvalidate:
		return btbOp{kind: opInvalidate, info: e.Info}, true
	}
	return btbOp{}, false // evictions are a side effect of the install replayed after them
}

// tracedCell is sim.New plus the fast cycle loop rebuilt from the
// public constructors, with one cycle in sampleEvery timed layer by
// layer. Its statistics must equal the library run's byte for byte.
func tracedCell(cfg sim.Config, srcs []trace.Source, ovh int64, rec *streamRecorder) (sim.Result, layerSample, error) {
	c := core.New(cfg.Core)
	var (
		ic       *icache.Hierarchy
		ls       layerSample
		sampling bool
	)
	if cfg.ICache != nil {
		ic = icache.New(*cfg.ICache)
	}
	if ic != nil && cfg.Prefetch {
		c.SetSearchHook(func(t int, line zarch.Addr) {
			if rec != nil {
				rec.search(line)
			}
			if !sampling {
				ic.Prefetch(line, c.Clock())
				return
			}
			t0 := nanotime()
			ic.Prefetch(line, c.Clock())
			ls.pfNs += nanotime() - t0 - ovh
			ls.pfCalls++
		})
	} else if rec != nil {
		c.SetSearchHook(func(t int, line zarch.Addr) { rec.search(line) })
	}
	if rec != nil {
		c.ObserveBTB1(func(e btb.Event) {
			if op, ok := writeOp(e); ok {
				rec.btb1 = append(rec.btb1, op)
			}
		})
		c.ObserveBTB2(func(e btb.Event) {
			if op, ok := writeOp(e); ok {
				rec.btb2 = append(rec.btb2, op)
			}
		})
	}
	threads := make([]*frontend.Thread, len(srcs))
	for i, src := range srcs {
		threads[i] = frontend.NewThread(cfg.Front, i, c, ic, src)
	}
	t0, t1 := threads[0], threads[0]
	smt := len(threads) > 1
	if smt {
		t1 = threads[1]
	}
	var (
		lastInstr, lastProgress int64
		x                       uint64 = 0x9E3779B97F4A7C15
	)
	for !(t0.Done() && t1.Done()) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%sampleEvery != 0 {
			c.Cycle()
			now := c.Clock()
			t0.Step(now)
			if smt {
				t1.Step(now)
			}
			if ic != nil {
				ic.Tick(now)
			}
		} else {
			sampling = true
			a := nanotime()
			c.Cycle()
			b := nanotime()
			now := c.Clock()
			t0.Step(now)
			if smt {
				t1.Step(now)
			}
			d := nanotime()
			if ic != nil {
				ic.Tick(now)
			}
			e := nanotime()
			sampling = false
			ls.sampled++
			ls.steps += int64(len(threads))
			ls.cycleNs += b - a - ovh
			ls.stepNs += d - b - ovh
			ls.tickNs += e - d - ovh
		}
		now := c.Clock()
		instr := t0.Instructions()
		if smt {
			instr += t1.Instructions()
		}
		if instr > lastInstr {
			lastInstr, lastProgress = instr, now
		} else if now-lastProgress > 200_000 {
			return sim.Result{}, ls, errors.New("traced driver: no instruction retired for 200000 cycles")
		}
	}
	res := sim.Result{
		Name:   cfg.Core.Name,
		Cycles: c.Clock(),
		Core:   c.Stats(),
		BTB1:   c.BTB1Stats(),
		BTB2:   c.BTB2Stats(),
		Dir:    c.DirStats(),
		Tgt:    c.TgtStats(),
		CPred:  c.CPredStats(),
	}
	for _, t := range threads {
		res.Threads = append(res.Threads, t.Stats())
	}
	if ic != nil {
		res.IC = ic.Stats()
	}
	ls.cycles = res.Cycles
	return res, ls, nil
}

// sweepTraced is the traced sweep-local run: untraced per-cell cost,
// the traced driver's per-layer split, and isolated replays of the
// structures inside the core.
func sweepTraced(ctx context.Context, o options, in *sweepInputs, tasks []sweepTask, refs []cellRef, rep *report) error {
	// Untraced: per-cell ns/instr and allocation rate.
	perCell := map[string][]float64{}
	var (
		mallocs, allocBytes uint64
		instrU              int64
		before, after       runtime.MemStats
	)
	deadline := time.Now().Add(o.dur * 2 / 5)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, t := range tasks {
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			res, err := in.run(ctx, t)
			d := time.Since(t0)
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			name := t.cell.name()
			rep.check(sameResult(res, refs[i]), name+": result differs from the reference")
			mallocs += after.Mallocs - before.Mallocs
			allocBytes += after.TotalAlloc - before.TotalAlloc
			instrU += res.Instructions()
			perCell[name] = append(perCell[name], float64(d)/float64(res.Instructions()))
		}
	}
	var cycles, mispredicts int64
	for name, xs := range perCell {
		rep.set("sim.ns_per_instr."+name, median(xs))
	}
	for _, r := range refs {
		cycles += r.res.Cycles
		mispredicts += r.res.Mispredicts()
	}
	rep.set("sim.allocs_per_minstr", float64(mallocs)/float64(instrU)*1e6)
	rep.set("sim.bytes_per_minstr", float64(allocBytes)/float64(instrU)*1e6)
	rep.set("model.cycles", float64(cycles))
	rep.set("model.mispredicts", float64(mispredicts))
	rep.set("workload.materialize_ns_per_instr", in.matNs)

	// trace.next_ns: replay cost alone, per record.
	var nextNs, nextRecs float64
	for _, p := range in.traces {
		best := time.Duration(1 << 62)
		for r := 0; r < 5; r++ {
			cur := p.Cursor()
			t0 := time.Now()
			for {
				r, ok := cur.Next()
				if !ok {
					break
				}
				traceSink ^= uint64(r.Addr)
			}
			best = min(best, time.Since(t0))
		}
		nextNs += float64(best)
		nextRecs += float64(p.Len())
	}
	nextPerRec := nextNs / nextRecs
	rep.set("trace.next_ns", nextPerRec)

	// Traced driver: per-layer self time, sampled one cycle in
	// sampleEvery, laid out as aggregate spans under one span per cell.
	ovh := clockOverhead()
	perTask := make([]layerSample, len(tasks))
	var tracedWall, untracedWall float64
	var total layerSample
	deadline = time.Now().Add(o.dur * 2 / 5)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, t := range tasks {
			c := t.cell
			cfg, err := simConfig(c.config)
			if err != nil {
				return err
			}
			srcs := in.sources(c, t.seed)
			start := time.Now()
			res, ls, err := tracedCell(cfg, srcs, ovh, nil)
			end := time.Now()
			if err != nil {
				return err
			}
			b, err := res.StatsJSON()
			rep.check(err == nil && bytes.Equal(b, refs[i].stats), c.name()+": traced driver stats bytes differ from sim's")
			perTask[i].add(ls)
			total.add(ls)
			tracedWall += float64(end.Sub(start))
			untracedWall += median(perCell[c.name()]) * float64(res.Instructions())

			coreSelf, step, tick, pf := ls.estimates(ovh)
			traceT := nextPerRec * float64(res.Instructions())
			root := rep.spans.add("sim.cell", c.name(), 0, start, end)
			at, stop := rep.spans.at(start), rep.spans.at(end)
			for _, l := range []struct {
				name string
				ns   float64
			}{{"core.cycle", coreSelf}, {"icache.prefetch", pf}, {"frontend.step", step - traceT}, {"trace.next", traceT}, {"icache.tick", tick}} {
				// Estimates are laid end to end inside the cell; clipping
				// to its end keeps the shares a partition of its time.
				next := min(at+int64(max(l.ns, 0)), stop)
				rep.spans.addNs(l.name, c.name(), root, at, next, ls.sampled)
				at = next
			}
		}
	}
	rep.set("sim.trace_overhead", tracedWall/untracedWall)
	coreSelf, _, _, _ := total.estimates(ovh)
	rep.set("core.cycle_ns", coreSelf/float64(total.cycles))
	rep.set("frontend.step_ns", float64(total.stepNs)/float64(total.steps))
	rep.set("icache.tick_ns", float64(total.tickNs)/float64(total.sampled))
	rep.set("icache.prefetch_ns", ratio(float64(total.pfNs), float64(total.pfCalls)))
	self, rootTotal := rep.spans.selfTimes()
	share := func(name string) float64 { return float64(self[name]) / float64(rootTotal) }
	rep.set("core.share", share("core.cycle"))
	rep.set("frontend.share", share("frontend.step"))
	rep.set("icache.share", share("icache.tick")+share("icache.prefetch"))
	rep.set("trace.share", share("trace.next"))
	rep.set("sim.loop_share", share("sim.cell"))

	return coreReplays(in, tasks, refs, perTask, ovh, rep)
}

// traceSink keeps replay loops from being optimized away.
var traceSink uint64

// coreReplays times BTB1, BTB2, direction, target and column
// prediction alone, each fed the stream one single-thread cell
// recorded, and weights each cost by the model's own per-instruction
// counts for that cell.
func coreReplays(in *sweepInputs, tasks []sweepTask, refs []cellRef, layers []layerSample, ovh int64, rep *report) error {
	var (
		instr                                  float64
		n1, n2, nDir, nTgt, nCP                float64
		t1, t2, tSel, tRes, tTgt, tCP, coreAll float64
		attributed                             float64
	)
	for i, t := range tasks {
		c := t.cell
		if len(c.workloads) != 1 {
			continue
		}
		cfg, err := simConfig(c.config)
		if err != nil {
			return err
		}
		rec := &streamRecorder{}
		if _, _, err := tracedCell(cfg, in.sources(c, t.seed), ovh, rec); err != nil {
			return err
		}
		ref := refs[i].res
		ci := float64(ref.Instructions())
		c1 := float64(ref.BTB1.Searches)
		cs := ref.Core
		c2 := float64(cs.BTB2MissTriggers + cs.BTB2Proactive + cs.BTB2CtxPrefetch - cs.BTB2Suppressed)
		cDir := float64(sumArr(ref.Dir.Issued[:]))
		cTgt := float64(sumArr(ref.Tgt.Provided[:]))
		cCP := float64(ref.CPred.Lookups)

		s1 := btbSearchNs(cfg.Core.BTB1, rec.btb1, nil, 0, 0, 0)
		var s2 float64
		if cfg.Core.BTB2Enabled && c2 > 0 {
			s2 = btbSearchNs(cfg.Core.BTB2, rec.btb2, rec.lines, int(c2), cfg.Core.BTB2RegionLines, cfg.Core.BTB2MaxBranches)
		}
		p := in.traces[c.traceKeys(t.seed)[0]]
		sel, res := dirpredNs(cfg.Core, p, ovh)
		tg := tgtNs(cfg.Core, p, ovh)
		cp := cpredNs(cfg.Core, p, ovh)

		instr += ci
		n1, n2, nDir, nTgt, nCP = n1+c1, n2+c2, nDir+cDir, nTgt+cTgt, nCP+cCP
		t1, t2 = t1+s1*c1, t2+s2*c2
		tSel, tRes, tTgt, tCP = tSel+sel*cDir, tRes+res*cDir, tTgt+tg*cTgt, tCP+cp*cCP
		attributed += s1*c1 + s2*c2 + (sel+res)*cDir + tg*cTgt + cp*cCP
		// layers[i] summed every traced pass; scale to one run.
		coreSelf, _, _, _ := layers[i].estimates(ovh)
		coreAll += coreSelf * float64(ref.Cycles) / float64(layers[i].cycles)
	}
	rep.set("btb1.search_ns", ratio(t1, n1))
	rep.set("btb2.search_ns", ratio(t2, n2))
	rep.set("btb1.searches_per_instr", n1/instr)
	rep.set("btb2.searches_per_instr", n2/instr)
	rep.set("dirpred.select_ns", ratio(tSel, nDir))
	rep.set("dirpred.resolve_ns", ratio(tRes, nDir))
	rep.set("tgt.select_ns", ratio(tTgt, nTgt))
	rep.set("cpred.lookup_ns", ratio(tCP, nCP))
	rep.set("core.unattributed_share", 1-attributed/coreAll)
	return nil
}

func sumArr(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// btbSearchNs replays a recorded write stream into fresh tables twice,
// with and without the searches, and returns the search cost as the
// difference per search. BTB1 searches are recorded in stream order;
// BTB2 bulk searches are not observable, so n2 of them are spread
// evenly through the write stream, each starting at a BTB1-searched
// line taken at the same relative position.
func btbSearchNs(geo btb.Geometry, ops []btbOp, lines []zarch.Addr, n2, regionLines, maxBranches int) float64 {
	replay := func(withSearches bool) time.Duration {
		best := time.Duration(1 << 62)
		for r := 0; r < 3; r++ {
			t := btb.New(geo)
			next := 0 // index of the next synthetic bulk search
			t0 := time.Now()
			for i, op := range ops {
				for withSearches && n2 > 0 && next < n2 && next*len(ops) <= i*n2 {
					out := t.SearchRegion(lines[next*len(lines)/n2], regionLines, maxBranches)
					traceSink += uint64(len(out))
					next++
				}
				switch op.kind {
				case opSearch:
					if withSearches {
						traceSink += uint64(len(t.SearchLine(op.line)))
					}
				case opInstall:
					t.Install(op.info)
				case opInvalidate:
					t.Invalidate(op.info.Addr)
				}
			}
			for withSearches && n2 > 0 && next < n2 {
				traceSink += uint64(len(t.SearchRegion(lines[next*len(lines)/n2], regionLines, maxBranches)))
				next++
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	searches := n2
	if n2 == 0 {
		for _, op := range ops {
			if op.kind == opSearch {
				searches++
			}
		}
	}
	if searches == 0 {
		return 0
	}
	return max(0, float64(replay(true)-replay(false))/float64(searches))
}

// timedEvery: isolated replays time one call in this many with a
// clock pair, subtracting the pair's own cost.
const timedEvery = 4

// dirpredNs feeds every conditional branch record through the
// direction unit's Select and then Resolve.
func dirpredNs(cfg core.Config, p *trace.Packed, ovh int64) (selNs, resNs float64) {
	u := dirpred.New(cfg.Dir)
	g := history.New(cfg.GPVDepth)
	var bht [4096]sat.Counter2
	var seq uint64
	var sel, res, n int64
	cur := p.Cursor()
	for r, ok := cur.Next(); ok; r, ok = cur.Next() {
		if !r.Kind().Conditional() {
			if r.IsBranch() && r.Taken() {
				g = g.Push(r.Addr)
			}
			continue
		}
		h := uint64(r.Addr>>1) % uint64(len(bht))
		in := dirpred.Input{
			Addr: r.Addr, Way: int(h % uint64(cfg.BTB1.Ways)), GPV: g, Seq: seq,
			Conditional: true, Bidirectional: true, BHT: bht[h], AllowAux: true,
		}
		seq++
		if seq%timedEvery == 0 {
			t0 := nanotime()
			s := u.Select(in)
			t1 := nanotime()
			u.Resolve(s, r.Taken())
			t2 := nanotime()
			sel += t1 - t0 - ovh
			res += t2 - t1 - ovh
			n++
		} else {
			u.Resolve(u.Select(in), r.Taken())
		}
		bht[h] = bht[h].Update(r.Taken())
		if r.Taken() {
			g = g.Push(r.Addr)
		}
	}
	return ratio(float64(sel), float64(n)), ratio(float64(res), float64(n))
}

// tgtNs feeds every taken branch through the target unit's Select.
func tgtNs(cfg core.Config, p *trace.Packed, ovh int64) float64 {
	u := tgt.New(cfg.Tgt)
	g := history.New(cfg.GPVDepth)
	var t, n, seen int64
	cur := p.Cursor()
	for r, ok := cur.Next(); ok; r, ok = cur.Next() {
		if !r.IsBranch() || !r.Taken() {
			continue
		}
		info := core.SurpriseInfo(r.Addr, r.Len(), r.Kind(), r.Target, true)
		info.MultiTarget = r.Kind().Indirect()
		seen++
		if seen%timedEvery == 0 {
			t0 := nanotime()
			s := u.Select(info, r.CtxID, g, true)
			t += nanotime() - t0 - ovh
			n++
			traceSink += uint64(s.Target)
		} else {
			traceSink += uint64(u.Select(info, r.CtxID, g, true).Target)
		}
		g = g.Push(r.Addr)
	}
	return ratio(float64(t), float64(n))
}

// cpredNs looks every stream start (taken-branch target) up in the
// column predictor and trains the stream it closes.
func cpredNs(cfg core.Config, p *trace.Packed, ovh int64) float64 {
	c := cpred.New(cfg.CPred)
	if !c.Enabled() {
		return 0
	}
	var t, n, seen int64
	var stream zarch.Addr
	searches := 0
	cur := p.Cursor()
	for r, ok := cur.Next(); ok; r, ok = cur.Next() {
		searches++
		if !r.IsBranch() || !r.Taken() {
			continue
		}
		c.Update(stream, min(searches/4+1, 15), 0, r.Target, cpred.PowerAll)
		stream, searches = r.Target, 0
		seen++
		if seen%timedEvery == 0 {
			t0 := nanotime()
			res := c.Lookup(stream)
			t += nanotime() - t0 - ovh
			n++
			traceSink += uint64(res.Searches)
		} else {
			traceSink += uint64(c.Lookup(stream).Searches)
		}
	}
	return ratio(float64(t), float64(n))
}
