// Command zdiff runs the differential equivalence harness
// (internal/equiv) over a grid of (config, workload) cells: every cell
// is executed along multiple paths that must agree exactly (packed vs
// streaming, pooled vs direct, a background vs a cancellable context,
// event-log replay) plus metamorphic invariants, and any divergence is
// reported with the cell and the first diverging metric.
//
// Usage:
//
//	zdiff                           # full preset x generation grid
//	zdiff -configs z15 -scale 4000  # quick smoke (see `make diff-smoke`)
//	zdiff -perturb                  # prove detection: MUST report divergences
//	zdiff -listchecks
//
// Exit status: 0 all cells clean (or, with -perturb, divergence
// detected as demanded), 1 divergences found (or -perturb detected
// nothing), 2 usage errors, an unknown -checks name among them
// (equiv.ValidateChecks).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zbp/internal/equiv"
	"zbp/internal/metrics"
	"zbp/internal/workload"
)

func main() {
	var (
		cfgArg   = flag.String("configs", "zEC12,z13,z14,z15", "comma-separated machine generations")
		wlArg    = flag.String("workloads", "", "comma-separated workloads (default: every preset)")
		scale    = flag.Int("scale", 20_000, "instructions per cell")
		seed     = flag.Uint64("seed", 42, "workload seed")
		par      = flag.Int("p", 0, "parallel cells (0 = GOMAXPROCS)")
		checkArg = flag.String("checks", "", "comma-separated check subset (default: all; see -listchecks)")
		perturb  = flag.Bool("perturb", false, "deliberately corrupt one BHT entry per cell; the run then MUST report divergences")
		verbose  = flag.Bool("v", false, "print every finding, not just the per-cell verdict table")
		list     = flag.Bool("listchecks", false, "list registered checks and exit")
	)
	flag.Parse()

	if *list {
		for _, c := range equiv.Checks() {
			fmt.Printf("%-22s %s\n", c.Name, c.Kind)
		}
		return
	}

	workloads := workload.Names()
	if *wlArg != "" {
		workloads = splitList(*wlArg)
	}
	configs := splitList(*cfgArg)
	if len(configs) == 0 || len(workloads) == 0 {
		fmt.Fprintln(os.Stderr, "zdiff: need at least one config and one workload")
		os.Exit(2)
	}
	opts := equiv.Options{Checks: splitList(*checkArg), Perturb: *perturb}
	if err := equiv.ValidateChecks(opts.Checks); err != nil {
		fmt.Fprintln(os.Stderr, "zdiff:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cells := equiv.Grid(configs, workloads, []uint64{*seed}, *scale)
	fmt.Printf("checking %d cells (%d configs x %d workloads, %d instructions each)...\n",
		len(cells), len(configs), len(workloads), *scale)
	start := time.Now()
	results := equiv.CheckGrid(ctx, cells, opts, *par)
	elapsed := time.Since(start).Round(time.Millisecond)

	tab := metrics.NewTable("cell", "checks", "verdict", "first finding")
	diverged := 0
	for _, r := range results {
		verdict, first := "ok", ""
		switch {
		case r.Err != nil:
			verdict, first = "ERROR", r.Err.Error()
			diverged++
		case !r.OK():
			fs := r.Findings()
			verdict = fmt.Sprintf("DIVERGED (%d)", len(fs))
			first = fs[0].String()
			diverged++
		}
		tab.Row(r.Cell.Name(), len(r.Checks), verdict, first)
		if *verbose {
			for _, f := range r.Findings() {
				fmt.Fprintf(os.Stderr, "%s\n", f)
			}
		}
	}
	tab.Render(os.Stdout)
	fmt.Printf("\n%d/%d cells diverged in %v\n", diverged, len(results), elapsed)

	if *perturb {
		// Inverted acceptance: the deliberate corruption must be caught.
		if diverged == 0 {
			fmt.Fprintln(os.Stderr, "zdiff: -perturb run detected NO divergence: the harness is blind")
			os.Exit(1)
		}
		fmt.Println("perturbation detected: harness end-to-end check passed")
		return
	}
	if diverged > 0 {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
