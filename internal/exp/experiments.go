package exp

import (
	"fmt"

	"zbp/internal/core"
	"zbp/internal/dirpred"
	"zbp/internal/metrics"
	"zbp/internal/runner"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// E1Table1 reprints the modeled Table 1 (structure sizes per
// generation) and sweeps BTB1 capacity on a large-footprint workload to
// show the capacity lever of §II.A/§III.
func E1Table1(o Options) {
	e, _ := ByID("table1")
	header(o.W, e)

	tab := metrics.NewTable("machine", "BTB1", "BTB2", "BTBP", "GPV", "PHT", "perceptron", "CRS", "CPRED", "SKOOT", "L1I", "L2I")
	for _, cfg := range core.Generations() {
		sc := sim.ForGeneration(cfg)
		pht := "1 table"
		if cfg.Dir.TwoTables {
			pht = "TAGE 2 tables"
		}
		yn := func(b bool) string {
			if b {
				return "yes"
			}
			return "no"
		}
		tab.Row(cfg.Name,
			fmt.Sprintf("%dK", cfg.BTB1.Capacity()/1024),
			fmt.Sprintf("%dK", cfg.BTB2.Capacity()/1024),
			cfg.BTBPEntries,
			cfg.GPVDepth,
			pht,
			yn(cfg.Dir.PerceptronEnabled),
			yn(cfg.Tgt.CRSEnabled),
			yn(cfg.CPred.Entries > 0),
			yn(cfg.SkootEnabled),
			fmt.Sprintf("%dKB", sc.ICache.L1Bytes/1024),
			fmt.Sprintf("%dMB", sc.ICache.L2Bytes/(1<<20)),
		)
	}
	tab.Render(o.W)

	fmt.Fprintf(o.W, "\nBTB1 capacity sweep (z15 otherwise, workload lspr, %d instructions):\n", o.scale())
	sweep := metrics.NewTable("BTB1 entries", "MPKI", "surprises", "accuracy")
	rowBitses := []uint{7, 8, 9, 10, 11}
	jobs := make([]runner.Job, len(rowBitses))
	for i, rowBits := range rowBitses {
		cfg := sim.Z15()
		cfg.Core.BTB1.RowBits = rowBits
		jobs[i] = job(o, cfg, "lspr", o.Seed)
	}
	for i, res := range runBatch(o, jobs) {
		cfg := sim.Z15()
		cfg.Core.BTB1.RowBits = rowBitses[i]
		sweep.Row(cfg.Core.BTB1.Capacity(), res.MPKI(), res.Threads[0].Surprises,
			fmt.Sprintf("%.4f", res.Accuracy()))
	}
	sweep.Render(o.W)
	fmt.Fprintln(o.W, "\nexpected shape: MPKI decreases monotonically with BTB1 capacity.")
}

// E2Restart quantifies the restart penalties of §I/§II: the configured
// 26-cycle flush plus queue-refill inefficiency, and the measured
// per-mispredict statistical cost.
func E2Restart(o Options) {
	e, _ := ByID("restart")
	header(o.W, e)
	cfg := sim.Z15()
	fmt.Fprintf(o.W, "configured: restart=%d cycles, queue refill=+%d (paper: 26, up to +10, ~35 statistical)\n\n",
		cfg.Front.RestartPenalty, cfg.Front.QueueRefillPenalty)
	tab := metrics.NewTable("workload", "mispredicts", "restart stall cyc", "stall/mispredict", "IPC")
	names := []string{"lspr", "micro", "indirect"}
	jobs := make([]runner.Job, len(names))
	for i, name := range names {
		jobs[i] = job(o, cfg, name, o.Seed)
	}
	for i, res := range runBatch(o, jobs) {
		name := names[i]
		t := res.Threads[0]
		events := t.DynWrongDir + t.DynWrongTarget + t.SurpriseWrong +
			t.SurpriseTakenRel + t.SurpriseTakenInd + t.BadPredictions
		tab.Row(name, res.Mispredicts(), t.RestartStall,
			fmt.Sprintf("%.1f", metrics.Ratio(t.RestartStall, events)),
			fmt.Sprintf("%.2f", res.IPC()))
	}
	tab.Render(o.W)
	fmt.Fprintln(o.W, "\nexpected shape: ~26-34 cycles lost per restart event.")
}

// E3Fig4 measures the 6-stage pipeline's taken-branch period without
// CPRED: one predicted taken branch every 5 cycles (figure 4).
func E3Fig4(o Options) {
	e, _ := ByID("fig4")
	header(o.W, e)
	cfg := core.Z15()
	cfg.CPred.Entries = 0
	tab := metrics.NewTable("configuration", "taken-branch period (cycles)", "paper")
	tab.Row("z15, no CPRED, single thread", fmt.Sprintf("%.2f", takenPeriod(cfg, false)), "5")
	tab.Row("z15, no CPRED, SMT2", fmt.Sprintf("%.2f", takenPeriod(cfg, true)), "6")
	tab.Render(o.W)
	renderTimelines(o.W)
}

// E4Fig5 measures the CPRED-accelerated period (figure 5: re-index at
// b2, a taken branch every 2 cycles) and SKOOT's search savings
// (figures 6-7).
func E4Fig5(o Options) {
	e, _ := ByID("fig5")
	header(o.W, e)
	tab := metrics.NewTable("configuration", "taken-branch period (cycles)", "paper")
	tab.Row("z15 with CPRED, single thread", fmt.Sprintf("%.2f", takenPeriod(core.Z15(), false)), "2")
	noCp := core.Z15()
	noCp.CPred.Entries = 0
	tab.Row("z15 without CPRED, single thread", fmt.Sprintf("%.2f", takenPeriod(noCp, false)), "5")
	tab.Render(o.W)

	fmt.Fprintf(o.W, "\nSKOOT search savings (workload lspr, %d instructions):\n", o.scale())
	skootTab := metrics.NewTable("SKOOT", "searches", "no-pred searches", "lines skipped", "searches/instr")
	settings := []bool{true, false}
	jobs := make([]runner.Job, len(settings))
	for i, on := range settings {
		cfg := sim.Z15()
		cfg.Core.SkootEnabled = on
		jobs[i] = job(o, cfg, "lspr", o.Seed)
	}
	for i, res := range runBatch(o, jobs) {
		label := "off"
		if settings[i] {
			label = "on"
		}
		skootTab.Row(label, res.Core.Searches, res.Core.NoPredSearches,
			res.Core.SkootLinesSkipped,
			fmt.Sprintf("%.3f", metrics.Ratio(res.Core.Searches, res.Instructions())))
	}
	skootTab.Render(o.W)
	fmt.Fprintln(o.W, "\nexpected shape: SKOOT reduces total and empty searches.")
}

// E5Fig8 reports which structure provided each direction prediction and
// how accurate each provider was (the figure 8 selection tree at work).
func E5Fig8(o Options) {
	e, _ := ByID("fig8")
	header(o.W, e)
	names := []string{"patterned", "lspr"}
	jobs := make([]runner.Job, len(names))
	for i, name := range names {
		jobs[i] = job(o, sim.Z15(), name, o.Seed)
	}
	for i, res := range runBatch(o, jobs) {
		fmt.Fprintf(o.W, "workload %s:\n", names[i])
		tab := metrics.NewTable("provider", "issued", "share", "accuracy")
		var total int64
		for _, v := range res.Dir.Issued {
			total += v
		}
		for p := dirpred.ProvNone; p <= dirpred.ProvPerceptron; p++ {
			iss := res.Dir.Issued[p]
			if iss == 0 {
				continue
			}
			tab.Row(p.String(), iss, metrics.Pct(iss, total), metrics.Pct(res.Dir.Correct[p], iss))
		}
		tab.Render(o.W)
		fmt.Fprintln(o.W)
	}
	fmt.Fprintln(o.W, "expected shape: BHT dominates volume; TAGE/perceptron carry the pattern/correlated branches with high accuracy.")
}

// E6Fig9 reports target-provider shares and wrong-target rates (the
// figure 9 selection tree at work).
func E6Fig9(o Options) {
	e, _ := ByID("fig9")
	header(o.W, e)
	providers := []string{"btb", "ctb", "crs"}
	names := []string{"callret", "indirect", "lspr"}
	jobs := make([]runner.Job, len(names))
	for i, name := range names {
		jobs[i] = job(o, sim.Z15(), name, o.Seed)
	}
	for j, res := range runBatch(o, jobs) {
		t := res.Threads[0]
		fmt.Fprintf(o.W, "workload %s (returns marked: %d, blacklists: %d, amnesties: %d):\n",
			names[j], res.Tgt.ReturnsMarked, res.Tgt.Blacklists, res.Tgt.Amnesties)
		tab := metrics.NewTable("provider", "taken predictions", "wrong target", "wrong rate")
		for i, p := range providers {
			if t.TgtProvided[i] == 0 {
				continue
			}
			tab.Row(p, t.TgtProvided[i], t.TgtWrong[i], metrics.Pct(t.TgtWrong[i], t.TgtProvided[i]))
		}
		tab.Render(o.W)
		fmt.Fprintln(o.W)
	}
	fmt.Fprintln(o.W, "expected shape: CRS covers call/return targets, CTB covers path-correlated switches; BTB alone would mispredict multi-target branches.")
}

// E7MPKI reproduces the headline result's shape: MPKI falls across
// generations, with the z15 step larger than the z14 step (paper §VIII:
// -9.6% z13->z14, -25% z14->z15 on LSPR workloads).
func E7MPKI(o Options) {
	e, _ := ByID("mpki")
	header(o.W, e)
	names := []string{"lspr", "lspr-large", "micro", "mixed"}
	if len(o.Workloads) > 0 {
		names = o.Workloads
	}
	if o.seeds() > 1 {
		fmt.Fprintf(o.W, "averaging over %d workload seeds per cell.\n\n", o.seeds())
	}
	// The full matrix (generations x workloads x seeds) is one flat
	// batch, so the pool keeps every core busy across cell boundaries.
	var jobs []runner.Job
	for _, gen := range core.Generations() {
		for _, name := range names {
			for k := 0; k < o.seeds(); k++ {
				jobs = append(jobs, job(o, sim.ForGeneration(gen), name, o.Seed+uint64(k)*101))
			}
		}
	}
	results := runBatch(o, jobs)
	perGen := map[string][]float64{}
	idx := 0
	for _, gen := range core.Generations() {
		for range names {
			sum := 0.0
			for k := 0; k < o.seeds(); k++ {
				sum += results[idx].MPKI()
				idx++
			}
			perGen[gen.Name] = append(perGen[gen.Name], sum/float64(o.seeds()))
		}
	}
	tab := metrics.NewTable(append([]string{"machine"}, names...)...)
	for _, gen := range core.Generations() {
		row := []interface{}{gen.Name}
		for _, v := range perGen[gen.Name] {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		tab.Row(row...)
	}
	tab.Render(o.W)

	avg := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}
	a13, a14, a15 := avg(perGen["z13"]), avg(perGen["z14"]), avg(perGen["z15"])
	fmt.Fprintf(o.W, "\naverage MPKI: z13=%.2f z14=%.2f z15=%.2f\n", a13, a14, a15)
	fmt.Fprintf(o.W, "z13->z14: %s (paper: -9.6%%)\n", metrics.Delta(a13, a14))
	fmt.Fprintf(o.W, "z14->z15: %s (paper: -25%%)\n", metrics.Delta(a14, a15))
	fmt.Fprintln(o.W, "expected shape: both deltas negative, z15 step larger than z14 step.")
}

// E8BTB2 quantifies the two-level BTB (§III): surprises and MPKI with
// the BTB2 disabled, and the periodic-refresh contribution.
func E8BTB2(o Options) {
	e, _ := ByID("btb2")
	header(o.W, e)
	type variant struct {
		name string
		mod  func(*sim.Config)
	}
	variants := []variant{
		{"z15 (BTB2 on)", func(*sim.Config) {}},
		{"no BTB2", func(c *sim.Config) { c.Core.BTB2Enabled = false }},
		{"no periodic refresh", func(c *sim.Config) { c.Core.RefreshRun = 0 }},
		{"no proactive trigger", func(c *sim.Config) { c.Core.SurpriseRun = 0 }},
	}
	section := func(title, wl string, rowBits uint) {
		fmt.Fprintf(o.W, "%s (workload %s, %d instructions):\n", title, wl, o.scale())
		tab := metrics.NewTable("configuration", "surprises", "MPKI", "IPC", "backfill triggers", "refresh writes")
		jobs := make([]runner.Job, len(variants))
		for i, v := range variants {
			cfg := sim.Z15()
			cfg.Core.BTB1.RowBits = rowBits
			v.mod(&cfg)
			jobs[i] = job(o, cfg, wl, o.Seed)
		}
		for i, res := range runBatch(o, jobs) {
			tab.Row(variants[i].name, res.Threads[0].Surprises, fmt.Sprintf("%.2f", res.MPKI()),
				fmt.Sprintf("%.2f", res.IPC()),
				res.Core.BTB2MissTriggers, res.Core.RefreshWrites)
		}
		tab.Render(o.W)
		fmt.Fprintln(o.W)
	}
	section("full-size 16K BTB1, footprint pressure", "lspr-large", 11)
	section("shrunken 2K BTB1, heavy capacity crunch", "lspr", 8)
	fmt.Fprintln(o.W, "expected shape: the BTB2 reduces surprises (its §III job is branch")
	fmt.Fprintln(o.W, "coverage). MPKI stays roughly neutral at simulation scale: backfilled")
	fmt.Fprintln(o.W, "entries predict with install-time counter state, trading cheap static")
	fmt.Fprintln(o.W, "guesses for occasional stale dynamic predictions.")
}

// E9Prefetch shows the lookahead predictor acting as an instruction
// prefetcher (§IV): fetch-stall cycles with and without BPL-driven
// prefetch.
func E9Prefetch(o Options) {
	e, _ := ByID("prefetch")
	header(o.W, e)
	tab := metrics.NewTable("workload", "prefetch", "fetch stall cyc", "IPC", "useful prefetches", "L1 hit rate")
	type cell struct {
		name string
		on   bool
	}
	var cells []cell
	var jobs []runner.Job
	for _, name := range []string{"lspr", "lspr-large", "micro"} {
		for _, on := range []bool{true, false} {
			cfg := sim.Z15()
			cfg.Prefetch = on
			cells = append(cells, cell{name, on})
			jobs = append(jobs, job(o, cfg, name, o.Seed))
		}
	}
	for i, res := range runBatch(o, jobs) {
		label := "off"
		if cells[i].on {
			label = "on"
		}
		tab.Row(cells[i].name, label, res.Threads[0].FetchStall,
			fmt.Sprintf("%.2f", res.IPC()), res.IC.PrefetchUseful,
			metrics.Pct(res.IC.L1Hits, res.IC.Accesses))
	}
	tab.Render(o.W)
	fmt.Fprintln(o.W, "\nexpected shape: prefetch removes most fetch-stall cycles on large footprints.")
}

// E10SBHT reproduces the weak-loop-branch pathology (§IV): with the
// speculative BHT/PHT disabled, delayed GPQ-state-based updates let a
// mostly-taken loop branch's counter be knocked to not-taken, causing
// mispredict storms.
func E10SBHT(o Options) {
	e, _ := ByID("sbht")
	header(o.W, e)
	fmt.Fprintln(o.W, "The BHT-only rows isolate the §IV scenario (a weak-taken loop branch")
	fmt.Fprintln(o.W, "with several in-flight instances); the full-z15 rows show the TAGE")
	fmt.Fprintln(o.W, "PHT absorbing most of the exposure once the branch turns bidirectional.")
	fmt.Fprintln(o.W)
	tab := metrics.NewTable("configuration", "MPKI", "dyn wrong direction", "accuracy")
	for i, res := range e10Runs(o) {
		tab.Row(e10Variants[i].label, fmt.Sprintf("%.2f", res.MPKI()), res.Threads[0].DynWrongDir,
			fmt.Sprintf("%.4f", res.Accuracy()))
	}
	tab.Render(o.W)
	fmt.Fprintln(o.W, "\nexpected shape: without the speculative trackers, wrong directions rise on the weak loop branch (sharply in the BHT-only rows).")
}

// e10Variants are E10's four configurations, in report order.
var e10Variants = []struct {
	label   string
	entries int
	auxOff  bool
}{
	{"BHT only, SBHT 8 entries", 8, true},
	{"BHT only, SBHT disabled", 0, true},
	{"full z15, SBHT/SPHT 8 entries", 8, false},
	{"full z15, SBHT/SPHT disabled", 0, false},
}

// e10Runs simulates every e10Variants configuration on the weak-loop
// workload and returns the results in the same order. The E10 report
// prints these runs and TestWeakLoopPathologyShape asserts its premise
// on them.
func e10Runs(o Options) []sim.Result {
	// The pathological workload is packed once; every variant replays
	// the shared buffer.
	packed, err := trace.Pack(weakLoop(o.Seed), o.scale())
	if err != nil {
		panic(fmt.Errorf("exp: packing weak-loop workload: %w", err))
	}
	jobs := make([]runner.Job, len(e10Variants))
	for i, v := range e10Variants {
		cfg := sim.Z15()
		cfg.Core.Dir.SpecEntries = v.entries
		if v.auxOff {
			cfg.Core.Dir.PHTEnabled = false
			cfg.Core.Dir.PerceptronEnabled = false
		}
		jobs[i] = runner.Job{
			Name:         v.label,
			Config:       cfg,
			Source:       runner.Packed(packed),
			Instructions: o.scale(),
		}
	}
	return runBatch(o, jobs)
}

// weakLoop builds the pathological §IV workload: a tight loop around a
// strongly biased (90% taken) conditional, so several in-flight
// instances predict from the same weak counter state.
func weakLoop(seed uint64) trace.Source {
	b := workload.NewBuilder(0x10000, seed)
	headL := b.NewLabel()
	head := b.Block(4)
	b.Bind(headL, head)
	blk := b.Block(4)
	blk.CondBias(0.9, headL)
	tail := b.Block(2)
	tail.Jump(headL)
	return workload.NewExec(b.MustBuild(head), seed+1)
}

// E11Ablation removes one z15 feature at a time (§IV-§VI design
// choices) and reports the damage on a mixed workload.
func E11Ablation(o Options) {
	e, _ := ByID("ablation")
	header(o.W, e)
	type variant struct {
		name string
		mod  func(*sim.Config)
	}
	variants := []variant{
		{"z15 full", func(*sim.Config) {}},
		{"- perceptron", func(c *sim.Config) { c.Core.Dir.PerceptronEnabled = false }},
		{"- TAGE long table (single PHT)", func(c *sim.Config) { c.Core.Dir.TwoTables = false; c.Core.Dir.ShortHist = 17 }},
		{"- PHT entirely", func(c *sim.Config) { c.Core.Dir.PHTEnabled = false }},
		{"- CRS", func(c *sim.Config) { c.Core.Tgt.CRSEnabled = false }},
		{"- CTB", func(c *sim.Config) { c.Core.Tgt.CTBEntries = 0 }},
		{"- CPRED", func(c *sim.Config) { c.Core.CPred.Entries = 0 }},
		{"- SKOOT", func(c *sim.Config) { c.Core.SkootEnabled = false }},
		{"+ way-banked PHT (physical)", func(c *sim.Config) { c.Core.Dir.WayBanked = true }},
		{"- GPV17 (GPV9)", func(c *sim.Config) {
			c.Core.GPVDepth = 9
			c.Core.Dir.LongHist = 9
			c.Core.Tgt.CTBHist = 9
		}},
	}
	tab := metrics.NewTable("variant", "MPKI", "delta vs full", "IPC")
	jobs := make([]runner.Job, len(variants))
	for i, v := range variants {
		cfg := sim.Z15()
		v.mod(&cfg)
		jobs[i] = job(o, cfg, "mixed", o.Seed)
	}
	var base float64
	for i, res := range runBatch(o, jobs) {
		m := res.MPKI()
		if i == 0 {
			base = m
			tab.Row(variants[i].name, fmt.Sprintf("%.2f", m), "--", fmt.Sprintf("%.2f", res.IPC()))
			continue
		}
		tab.Row(variants[i].name, fmt.Sprintf("%.2f", m), metrics.Delta(base, m), fmt.Sprintf("%.2f", res.IPC()))
	}
	tab.Render(o.W)
	fmt.Fprintln(o.W, "\nexpected shape: every removal costs MPKI or IPC; the PHT is the largest single direction contributor.")
}

// E12Power reports how often CPRED's power predictor kept auxiliary
// structures gated off (§IV/§VI).
func E12Power(o Options) {
	e, _ := ByID("power")
	header(o.W, e)
	tab := metrics.NewTable("workload", "searches", "PHT gated", "perceptron gated", "CTB gated", "CPRED hit rate")
	names := []string{"loops", "patterned", "lspr", "micro"}
	jobs := make([]runner.Job, len(names))
	for i, name := range names {
		jobs[i] = job(o, sim.Z15(), name, o.Seed)
	}
	for i, res := range runBatch(o, jobs) {
		s := res.Core.Searches
		tab.Row(names[i], s,
			metrics.Pct(res.Core.PowerGatedPHT, s),
			metrics.Pct(res.Core.PowerGatedPerc, s),
			metrics.Pct(res.Core.PowerGatedCTB, s),
			metrics.Pct(res.CPred.Hits, res.CPred.Lookups))
	}
	tab.Render(o.W)
	fmt.Fprintln(o.W, "\nexpected shape: simple workloads keep auxiliary structures gated most of the time; accuracy is unaffected because gating follows the bidirectional/multi-target bits.")
}
