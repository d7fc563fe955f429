// Command zexp reproduces the paper's tables and figures: it runs the
// experiments indexed in DESIGN.md (E1..E12) and prints their reports.
//
// Usage:
//
//	zexp                     # run everything at default scale
//	zexp -exp mpki,fig4      # run selected experiments
//	zexp -scale 2000000      # instructions per simulation
//	zexp -parallel 4         # bound concurrent simulations (0 = all cores)
//	zexp -cpuprofile cpu.pb  # write a pprof CPU profile
//	zexp -list               # list experiment IDs
//
// Reports are byte-identical at every -parallel setting: the runner
// pool preserves job order and each simulation owns its own state.
// Every workload is packed once and replayed across all sweep points
// while it stays in a bounded trace cache; an evicted trace is packed
// again, byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"zbp/internal/exp"
	"zbp/internal/workload"
)

func main() {
	var (
		ids      = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		scale    = flag.Int("scale", 1_000_000, "instructions per simulation run")
		seed     = flag.Uint64("seed", 42, "workload seed")
		seeds    = flag.Int("seeds", 1, "seeds to average in the mpki experiment")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = all cores); results are identical at any setting")
		statsDir = flag.String("stats-dir", "", "serialize every simulation's stats snapshot (JSON) into this directory")
		wls      = flag.String("workloads", "", "comma-separated workload override for the mpki experiment (names, file:<path>, spec:<path>)")
		list     = flag.Bool("list", false, "list experiments and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zexp:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "zexp:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "zexp:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "zexp:", err)
			}
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-10s %s (%s)\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	var selected []exp.Experiment
	if *ids == "" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "zexp: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *statsDir != "" {
		if err := os.MkdirAll(*statsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "zexp:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("zbp experiment runner: %d experiment(s), scale %d instructions, seed %d\n",
		len(selected), *scale, *seed)
	// One materializer is shared across every selected experiment, so a
	// workload used by several experiments is generated once while it
	// stays resident.
	mz := workload.NewMaterializer()
	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		opts := exp.Options{W: os.Stdout, Scale: *scale, Seed: *seed, Seeds: *seeds,
			Parallelism: *parallel, Mat: mz, Workloads: splitList(*wls)}
		if *statsDir != "" {
			opts = opts.WithStats(*statsDir, e.ID)
		}
		e.Run(opts)
		fmt.Printf("[%s done in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	if mz.Count() > 0 {
		fmt.Printf("\nmaterialized %d packed trace(s) resident, %.1f MB shared across sweep points, %d evicted\n",
			mz.Count(), float64(mz.FootprintBytes())/(1<<20), mz.Evictions())
	}
	fmt.Printf("\nall done in %v\n", time.Since(start).Round(time.Millisecond))
}

// splitList parses a comma-separated flag into its non-empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
