// Command zsim runs one workload through one predictor configuration
// and prints the full metric set: the quick way to poke at the model.
//
// Usage:
//
//	zsim -workload lspr -config z15 -n 1000000
//	zsim -workload lspr -workload2 micro -config z15   # SMT2
//	zsim -workload file:path.zbpt -config z14          # trace file input
//	zsim -stats-json out.json                          # schema-versioned stats snapshot
//	zsim -events run.jsonl                             # cycle-level event log (JSONL)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"zbp/internal/core"
	"zbp/internal/dirpred"
	"zbp/internal/metrics"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "lspr", "workload name (see -listworkloads), file:<path> or spec:<path>")
		wl2     = flag.String("workload2", "", "second thread's workload (SMT2 mode)")
		cfgN    = flag.String("config", "z15", "machine config: zEC12, z13, z14, z15")
		n       = flag.Int("n", 1_000_000, "instructions per thread")
		seed    = flag.Uint64("seed", 42, "workload seed")
		noIC    = flag.Bool("noicache", false, "disable the I-cache model")
		noPref  = flag.Bool("noprefetch", false, "disable BPL-driven prefetch")
		asJSON  = flag.Bool("json", false, "emit the full result as JSON")
		statsJS = flag.String("stats-json", "", "write the schema-versioned stats snapshot to this file (- for stdout)")
		events  = flag.String("events", "", "stream the cycle-level event log as JSONL to this file")
		lw      = flag.Bool("listworkloads", false, "list workloads and exit")
		runTO   = flag.Duration("timeout", 0, "abort the simulation after this wall-clock budget (0 = none); a timed-out run reports the truncated prefix")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "zsim:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "zsim:", err)
			}
		}()
	}

	if *lw {
		for _, name := range workload.Names() {
			fmt.Println(name)
		}
		return
	}

	gen, err := core.ByName(*cfgN)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsim:", err)
		os.Exit(2)
	}
	cfg := sim.ForGeneration(gen)
	if *noIC {
		cfg.ICache = nil
	}
	if *noPref {
		cfg.Prefetch = false
	}

	src, err := workload.Make(*wl, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsim:", err)
		os.Exit(2)
	}
	srcs := []trace.Source{trace.Limit(src, *n)}
	if *wl2 != "" {
		src2, err := workload.Make(*wl2, *seed+1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(2)
		}
		srcs = append(srcs, trace.Limit(src2, *n))
	}

	s := sim.New(cfg, srcs)
	var evSink *sim.JSONLSink
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		evSink = sim.NewJSONLSink(f)
		s.SetEventSink(evSink)
	}
	ctx := context.Background()
	if *runTO > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runTO)
		defer cancel()
	}
	res, err := s.RunCtx(ctx, 0)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// The truncated prefix is still a valid report; say so and
		// keep going.
		fmt.Fprintf(os.Stderr, "zsim: timeout after %v, reporting truncated run (%d instructions)\n",
			*runTO, res.Instructions())
	case err != nil:
		fmt.Fprintln(os.Stderr, "zsim:", err)
		os.Exit(1)
	}
	if evSink != nil {
		if err := evSink.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "zsim: event log:", err)
			os.Exit(1)
		}
	}
	if *statsJS != "" {
		if err := writeStats(res, *statsJS); err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			sim.Result
			MPKI     float64
			IPC      float64
			Accuracy float64
		}{res, res.MPKI(), res.IPC(), res.Accuracy()}); err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		return
	}
	report(res)
}

// writeStats serializes the schema-versioned stats snapshot to path
// ("-" = stdout). The bytes are deterministic for a given run setup.
func writeStats(res sim.Result, path string) error {
	if path == "-" {
		return res.WriteStatsJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteStatsJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(res sim.Result) {
	fmt.Printf("config %s: %d instructions, %d cycles\n", res.Name, res.Instructions(), res.Cycles)
	fmt.Printf("IPC %.3f   MPKI %.3f   branch accuracy %.4f\n\n", res.IPC(), res.MPKI(), res.Accuracy())

	for i, t := range res.Threads {
		fmt.Printf("thread %d: %d instr, %d branches, %d dynamic (%.1f%% correct), %d surprises\n",
			i, t.Instructions, t.Branches, t.DynamicPredicted,
			100*metrics.Ratio(t.DynCorrect, t.DynamicPredicted), t.Surprises)
		fmt.Printf("  wrong: dir %d, target %d, static guess %d, bad predictions %d\n",
			t.DynWrongDir, t.DynWrongTarget, t.SurpriseWrong, t.BadPredictions)
		fmt.Printf("  stalls: restart %d, fetch %d, dispatch-sync %d cycles\n",
			t.RestartStall, t.FetchStall, t.DispatchSyncStall)
	}

	fmt.Printf("\ndirection providers (issued / accuracy):\n")
	tab := metrics.NewTable("provider", "issued", "accuracy")
	for p := dirpred.ProvNone; p <= dirpred.ProvPerceptron; p++ {
		if res.Dir.Issued[p] == 0 {
			continue
		}
		tab.Row(p.String(), res.Dir.Issued[p], metrics.Pct(res.Dir.Correct[p], res.Dir.Issued[p]))
	}
	tab.Render(os.Stdout)

	fmt.Printf("\ncore: %d searches (%d empty), %d predictions (%d taken), CPRED fast %d / slow %d, SKOOT lines %d\n",
		res.Core.Searches, res.Core.NoPredSearches, res.Core.Predictions,
		res.Core.TakenPredictions, res.Core.CPredFastRedirects, res.Core.CPredSlowRedirects,
		res.Core.SkootLinesSkipped)
	fmt.Printf("BTB2: %d backfill triggers, %d proactive, %d ctx prefetch, %d refresh writes\n",
		res.Core.BTB2MissTriggers, res.Core.BTB2Proactive, res.Core.BTB2CtxPrefetch, res.Core.RefreshWrites)
	fmt.Printf("icache: %s L1 hits, %d useful prefetches, %d demand-wait cycles\n",
		metrics.Pct(res.IC.L1Hits, res.IC.Accesses), res.IC.PrefetchUseful, res.IC.DemandWaitCycles)
}
