// Benchmarks: one per paper table/figure, per the DESIGN.md experiment
// index. Each benchmark runs the corresponding reproduction at a fixed
// per-iteration instruction budget and reports the headline quantity
// via b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// result's shape. cmd/zexp prints the full tables.
package zbp

import (
	"context"
	"io"
	"testing"
	"time"

	"zbp/internal/btb"
	"zbp/internal/core"
	"zbp/internal/dirpred"
	"zbp/internal/exp"
	"zbp/internal/sat"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/verif"
	"zbp/internal/workload"
	"zbp/internal/zarch"
)

const benchInstr = 200_000

// benchRun simulates benchInstr instructions per iteration and returns
// the last result. The workload is materialized into a packed trace
// once, outside the timed region, and every iteration replays a reset
// cursor over the shared buffer — so ns/op and allocs/op reflect the
// simulator hot path for every workload (resettable or not), and the
// one-time materialization cost is reported separately.
func benchRun(b *testing.B, cfg sim.Config, wl string, seed uint64) sim.Result {
	b.Helper()
	b.ReportAllocs()
	t0 := time.Now()
	p, err := workload.MakePacked(wl, seed, benchInstr)
	if err != nil {
		b.Fatal(err)
	}
	matNS := float64(time.Since(t0).Nanoseconds())
	cur := p.Cursor()
	var res sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.Reset()
		if res, err = sim.RunWorkloadCtx(context.Background(), cfg, &cur, benchInstr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MPKI(), "MPKI")
	b.ReportMetric(res.IPC(), "IPC")
	b.ReportMetric(matNS, "materialize-ns")
	return res
}

// BenchmarkTable1CapacitySweep (E1, Table 1): MPKI at the four
// generational BTB1 capacities.
func BenchmarkTable1CapacitySweep(b *testing.B) {
	for _, rowBits := range []uint{9, 10, 11} {
		rowBits := rowBits
		cfg := sim.Z15()
		cfg.Core.BTB1.RowBits = rowBits
		name := map[uint]string{9: "BTB1-4K", 10: "BTB1-8K", 11: "BTB1-16K"}[rowBits]
		b.Run(name, func(b *testing.B) {
			benchRun(b, cfg, "lspr", 42)
		})
	}
}

// BenchmarkFig1RestartPenalty (E2, Figure 1/§II): cycles lost per
// restart event.
func BenchmarkFig1RestartPenalty(b *testing.B) {
	res := benchRun(b, sim.Z15(), "lspr", 42)
	t := res.Threads[0]
	events := t.DynWrongDir + t.DynWrongTarget + t.SurpriseWrong +
		t.SurpriseTakenRel + t.SurpriseTakenInd + t.BadPredictions
	if events > 0 {
		b.ReportMetric(float64(t.RestartStall)/float64(events), "cycles/restart")
	}
}

// takenPeriod mirrors the E3/E4 measurement on a bare core.
func takenPeriod(b *testing.B, cfg core.Config, smt2 bool) float64 {
	b.Helper()
	mk := func(addr, target zarch.Addr) btb.Info {
		return btb.Info{Addr: addr, Len: 4, Kind: zarch.KindUncondRel,
			Target: target, BHT: sat.StrongT, Skoot: btb.SkootUnknown}
	}
	b.ReportAllocs()
	var period float64
	for i := 0; i < b.N; i++ {
		c := core.New(cfg)
		c.Preload(1, mk(0x10008, 0x40000))
		c.Preload(1, mk(0x40008, 0x10000))
		c.Restart(0, 0x10000, 0)
		if smt2 {
			c.Preload(1, mk(0x90008, 0xc0000))
			c.Preload(1, mk(0xc0008, 0x90000))
			c.Restart(1, 0x90000, 1)
		}
		var times []int64
		for len(times) < 160 {
			c.Cycle()
			for {
				p, ok := c.PopPred(0)
				if !ok {
					break
				}
				if p.Taken {
					times = append(times, p.PresentedAt)
				}
			}
			if smt2 {
				for {
					if _, ok := c.PopPred(1); !ok {
						break
					}
				}
			}
		}
		period = float64(times[len(times)-1]-times[40]) / float64(len(times)-1-40)
	}
	return period
}

// BenchmarkFig4PipelineNoCPRED (E3, Figure 4): taken-branch period 5
// (ST) and 6 (SMT2) without CPRED.
func BenchmarkFig4PipelineNoCPRED(b *testing.B) {
	cfg := core.Z15()
	cfg.CPred.Entries = 0
	b.Run("ST", func(b *testing.B) {
		b.ReportMetric(takenPeriod(b, cfg, false), "cycles/taken")
	})
	b.Run("SMT2", func(b *testing.B) {
		b.ReportMetric(takenPeriod(b, cfg, true), "cycles/taken")
	})
}

// BenchmarkFig5CPRED (E4, Figure 5): taken-branch period 2 with CPRED.
func BenchmarkFig5CPRED(b *testing.B) {
	b.ReportMetric(takenPeriod(b, core.Z15(), false), "cycles/taken")
}

// BenchmarkFig7SKOOT (E4, Figures 6-7): searches per instruction with
// and without SKOOT line skipping.
func BenchmarkFig7SKOOT(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sim.Z15()
			cfg.Core.SkootEnabled = on
			res := benchRun(b, cfg, "lspr", 42)
			b.ReportMetric(float64(res.Core.Searches)/float64(res.Instructions()), "searches/instr")
		})
	}
}

// BenchmarkFig8DirectionProviders (E5, Figure 8): share of direction
// predictions carried by the auxiliary predictors.
func BenchmarkFig8DirectionProviders(b *testing.B) {
	res := benchRun(b, sim.Z15(), "patterned", 42)
	var total, aux int64
	for p, v := range res.Dir.Issued {
		total += v
		if p >= int(dirpred.ProvPHTShort) {
			aux += v
		}
	}
	if total > 0 {
		b.ReportMetric(100*float64(aux)/float64(total), "aux-share-%")
	}
}

// BenchmarkFig9TargetProviders (E6, Figure 9): CRS coverage of returns
// on the call/return workload.
func BenchmarkFig9TargetProviders(b *testing.B) {
	res := benchRun(b, sim.Z15(), "callret", 42)
	t := res.Threads[0]
	b.ReportMetric(float64(t.TgtProvided[2]), "crs-predictions")
	if t.TgtProvided[2] > 0 {
		b.ReportMetric(100*float64(t.TgtWrong[2])/float64(t.TgtProvided[2]), "crs-wrong-%")
	}
}

// BenchmarkHeadlineMPKIGenerations (E7, §VIII): MPKI per generation on
// the LSPR workload.
func BenchmarkHeadlineMPKIGenerations(b *testing.B) {
	for _, gen := range core.Generations() {
		gen := gen
		b.Run(gen.Name, func(b *testing.B) {
			benchRun(b, sim.ForGeneration(gen), "lspr", 42)
		})
	}
}

// BenchmarkBTB2Backfill (E8, §III): surprises with and without the
// second level, under capacity pressure.
func BenchmarkBTB2Backfill(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sim.Z15()
			cfg.Core.BTB1.RowBits = 8
			cfg.Core.BTB2Enabled = on
			res := benchRun(b, cfg, "lspr", 42)
			b.ReportMetric(float64(res.Threads[0].Surprises), "surprises")
		})
	}
}

// BenchmarkLookaheadPrefetch (E9, §IV): fetch-stall cycles with and
// without BPL-driven prefetch.
func BenchmarkLookaheadPrefetch(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sim.Z15()
			cfg.Prefetch = on
			res := benchRun(b, cfg, "lspr-large", 42)
			b.ReportMetric(float64(res.Threads[0].FetchStall), "fetch-stall-cycles")
		})
	}
}

// BenchmarkSBHTPathology (E10, §IV): wrong directions on a weak loop
// branch with and without the speculative BHT (BHT-only configuration).
func BenchmarkSBHTPathology(b *testing.B) {
	for _, entries := range []int{8, 0} {
		entries := entries
		name := "sbht-on"
		if entries == 0 {
			name = "sbht-off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sim.Z15()
			cfg.Core.Dir.SpecEntries = entries
			cfg.Core.Dir.PHTEnabled = false
			cfg.Core.Dir.PerceptronEnabled = false
			b.ReportAllocs()
			p, err := trace.Pack(weakLoopSrc(), benchInstr)
			if err != nil {
				b.Fatal(err)
			}
			cur := p.Cursor()
			var res sim.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur.Reset()
				if res, err = sim.RunWorkloadCtx(context.Background(), cfg, &cur, benchInstr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Threads[0].DynWrongDir), "wrong-directions")
		})
	}
}

func weakLoopSrc() trace.Source {
	bld := workload.NewBuilder(0x10000, 1)
	headL := bld.NewLabel()
	head := bld.Block(4)
	bld.Bind(headL, head)
	blk := bld.Block(4)
	blk.CondBias(0.9, headL)
	tail := bld.Block(2)
	tail.Jump(headL)
	return workload.NewExec(bld.MustBuild(head), 2)
}

// BenchmarkAblations (E11): MPKI with one z15 feature removed at a
// time.
func BenchmarkAblations(b *testing.B) {
	variants := []struct {
		name string
		mod  func(*sim.Config)
	}{
		{"full", func(*sim.Config) {}},
		{"no-perceptron", func(c *sim.Config) { c.Core.Dir.PerceptronEnabled = false }},
		{"single-pht", func(c *sim.Config) { c.Core.Dir.TwoTables = false }},
		{"no-pht", func(c *sim.Config) { c.Core.Dir.PHTEnabled = false }},
		{"no-crs", func(c *sim.Config) { c.Core.Tgt.CRSEnabled = false }},
		{"no-ctb", func(c *sim.Config) { c.Core.Tgt.CTBEntries = 0 }},
		{"no-cpred", func(c *sim.Config) { c.Core.CPred.Entries = 0 }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := sim.Z15()
			v.mod(&cfg)
			benchRun(b, cfg, "mixed", 42)
		})
	}
}

// BenchmarkCPREDPower (E12, §IV/§VI): fraction of searches with the
// PHT/perceptron powered down.
func BenchmarkCPREDPower(b *testing.B) {
	res := benchRun(b, sim.Z15(), "micro", 42)
	if res.Core.Searches > 0 {
		b.ReportMetric(100*float64(res.Core.PowerGatedPHT)/float64(res.Core.Searches), "pht-gated-%")
	}
}

// drain pulls exactly n records from src through the Source interface
// (the hop the simulator front end pays per instruction on streaming
// sources) and returns a checksum so the loop cannot be optimized
// away.
func drain(b *testing.B, src trace.Source, n int) uint64 {
	b.Helper()
	var sum uint64
	for i := 0; i < n; i++ {
		r, ok := src.Next()
		if !ok {
			b.Fatalf("source ended after %d of %d records", i, n)
		}
		sum += uint64(r.Addr) + uint64(r.Len())
	}
	return sum
}

// The packed sub-benchmark of BenchmarkPackedReplay drains the cursor
// in a loop written directly into the benchmark body rather than a
// helper: with the concrete *trace.Cursor.Next inlined into the
// enclosing loop, the compiler keeps the returned Rec in registers
// (four SSA-able fields — see the trace.Rec doc) and drops loads of
// columns the checksum never consumes. Routing the same records
// through drain's Source-interface parameter costs roughly 2x per
// record; the packed-iface variant keeps that dispatch tax measurable.

// BenchmarkPackedReplay is the tentpole's headline microbenchmark: the
// per-record cost of one trace REPLAY, as a sweep job pays it.
//
// In a multi-point campaign every design point needs its own pass over
// the workload. On the streaming path, the one zsim and the zbp facade
// take, that means building the generator (workload.Make — program
// construction, behavior closures, rng) and running it from scratch.
// On the packed path the buffer was materialized once for the whole
// campaign, and a replay is a reset O(1) cursor over flat
// pre-validated columns.
//
// The packed sub-benchmark drains through the concrete cursor — the
// monomorphized path the front end actually takes; the
// packed-iface variant keeps the old Source-interface hop measurable
// so the dispatch cost stays visible beside it.
func BenchmarkPackedReplay(b *testing.B) {
	const n = benchInstr
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src, err := workload.Make("lspr", 42)
			if err != nil {
				b.Fatal(err)
			}
			drain(b, src, n)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/instr")
	})
	b.Run("packed", func(b *testing.B) {
		t0 := time.Now()
		p, err := workload.MakePacked("lspr", 42, n)
		if err != nil {
			b.Fatal(err)
		}
		matNS := float64(time.Since(t0).Nanoseconds())
		b.ReportAllocs()
		cur := p.Cursor()
		b.ResetTimer()
		var sum uint64
		for i := 0; i < b.N; i++ {
			cur.Reset()
			for j := 0; j < n; j++ {
				r, ok := cur.Next()
				if !ok {
					b.Fatalf("cursor ended after %d of %d records", j, n)
				}
				sum += uint64(r.Addr) + uint64(r.Len())
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/instr")
		b.ReportMetric(matNS, "materialize-ns")
		if sum == 0 {
			b.Fatal("replay checksum is zero")
		}
	})
	b.Run("packed-iface", func(b *testing.B) {
		p, err := workload.MakePacked("lspr", 42, n)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		cur := p.Cursor()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur.Reset()
			drain(b, &cur, n)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/instr")
	})
}

// BenchmarkE11AblationEndToEnd runs the whole E11 ablation experiment
// (10 z15 variants over the mixed workload) per iteration, in both
// trace modes: the end-to-end wall-clock view of materialize-once vs
// pack-per-point for a real multi-point study.
func BenchmarkE11AblationEndToEnd(b *testing.B) {
	const scale = 60_000
	for _, mode := range []string{"per-job", "packed"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := exp.Options{W: io.Discard, Scale: scale, Seed: 42}
				if mode == "packed" {
					// A fresh materializer per iteration charges the
					// one-time generation cost to the packed side too.
					o.Mat = workload.NewMaterializer()
				}
				exp.E11Ablation(o)
			}
		})
	}
}

// BenchmarkVerificationHarness exercises the §VII constrained-random
// white-box verification flow (not a paper figure; it keeps the
// harness itself under performance scrutiny).
func BenchmarkVerificationHarness(b *testing.B) {
	b.ReportAllocs()
	var rep verif.Report
	for i := 0; i < b.N; i++ {
		p := verif.DefaultParams(uint64(i + 1))
		p.Instructions = 50_000
		rep = verif.RunRandom(p)
		if rep.Failed() {
			b.Fatalf("verification errors: %v", rep.Errors[0])
		}
	}
	b.ReportMetric(float64(rep.Checks), "crosschecks")
}
