// Command ztune explores the predictor design space: the §VII
// "parameterizable performance modeling environment to evaluate the
// performance of different design options", as a CLI.
//
// Usage:
//
//	ztune -axes btb1,pht -workloads lspr,micro -n 300000
//	ztune -listaxes
//
// Each workload is materialized once (generated, validated and packed)
// and every design point replays cursors over the shared buffer.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"zbp/internal/metrics"
	"zbp/internal/sim"
	"zbp/internal/tune"
)

func main() {
	var (
		axesArg = flag.String("axes", "btb1,pht", "comma-separated axis names (see -listaxes)")
		wlArg   = flag.String("workloads", "lspr,micro", "comma-separated workload mix")
		n       = flag.Int("n", 200_000, "instructions per workload per design point")
		seed    = flag.Uint64("seed", 42, "workload seed")
		par     = flag.Int("p", 0, "parallel simulations (0 = GOMAXPROCS)")
		top     = flag.Int("top", 10, "show the best N points")
		list    = flag.Bool("listaxes", false, "list axes and exit")
	)
	flag.Parse()

	std := tune.StandardAxes()
	if *list {
		names := make([]string, 0, len(std))
		for name := range std {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := std[name]
			vals := make([]string, len(a.Values))
			for i, v := range a.Values {
				vals[i] = v.Label
			}
			fmt.Printf("%-12s %s\n", name, strings.Join(vals, " | "))
		}
		return
	}

	var axes []tune.Axis
	for _, name := range strings.Split(*axesArg, ",") {
		a, ok := std[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "ztune: unknown axis %q (try -listaxes)\n", name)
			os.Exit(2)
		}
		axes = append(axes, a)
	}

	study := &tune.Study{
		Base:         sim.Z15(),
		Axes:         axes,
		Workloads:    strings.Split(*wlArg, ","),
		Instructions: *n,
		Seed:         *seed,
		Parallelism:  *par,
	}
	fmt.Printf("exploring %d design points over %v (%d instructions each)...\n",
		study.Size(), study.Workloads, *n)
	start := time.Now()
	out := study.Run()
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	tab := metrics.NewTable("rank", "design point", "avg MPKI", "avg IPC", "score")
	for i, o := range out {
		if i >= *top {
			break
		}
		tab.Row(i+1, o.Name(axes), fmt.Sprintf("%.2f", o.MPKI),
			fmt.Sprintf("%.2f", o.IPC), fmt.Sprintf("%.3f", o.Score))
	}
	tab.Render(os.Stdout)
}
