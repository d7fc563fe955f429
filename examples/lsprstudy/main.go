// LSPR study: the capacity levers of §II.A/§III on a large-footprint
// transactional workload -- BTB1 size, the second-level BTB, and the
// lookahead prefetch that hides L1I misses.
package main

import (
	"context"
	"fmt"
	"os"

	"zbp/internal/metrics"
	"zbp/internal/sim"
	"zbp/internal/workload"
)

const n = 1_000_000

func run(cfg sim.Config) sim.Result {
	src, err := workload.Make("lspr-large", 7)
	if err != nil {
		panic(err)
	}
	res, err := sim.RunWorkloadCtx(context.Background(), cfg, src, n)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	fmt.Printf("lspr-large workload, %d instructions per run\n\n", n)

	fmt.Println("1) BTB1 capacity (paper: 'increasing the size of the main BTB has a")
	fmt.Println("   very regular corresponding positive impact on performance'):")
	tab := metrics.NewTable("BTB1 entries", "MPKI", "IPC", "surprises")
	for _, rowBits := range []uint{8, 9, 10, 11} {
		cfg := sim.Z15()
		cfg.Core.BTB1.RowBits = rowBits
		res := run(cfg)
		tab.Row(cfg.Core.BTB1.Capacity(), fmt.Sprintf("%.2f", res.MPKI()),
			fmt.Sprintf("%.2f", res.IPC()), res.Threads[0].Surprises)
	}
	tab.Render(os.Stdout)

	fmt.Println("\n2) Second-level BTB (backfill + proactive triggers):")
	tab2 := metrics.NewTable("config", "surprises", "IPC", "backfills")
	for _, on := range []bool{true, false} {
		cfg := sim.Z15()
		cfg.Core.BTB1.RowBits = 9 // capacity pressure at this scale
		cfg.Core.BTB2Enabled = on
		res := run(cfg)
		name := "BTB2 off"
		if on {
			name = "BTB2 on"
		}
		tab2.Row(name, res.Threads[0].Surprises, fmt.Sprintf("%.2f", res.IPC()),
			res.Core.BTB2MissTriggers+res.Core.BTB2Proactive)
	}
	tab2.Render(os.Stdout)

	fmt.Println("\n3) Lookahead prefetch (the BPL search stream primes the I-cache):")
	tab3 := metrics.NewTable("config", "fetch stall cycles", "IPC", "useful prefetches")
	for _, on := range []bool{true, false} {
		cfg := sim.Z15()
		cfg.Prefetch = on
		res := run(cfg)
		name := "prefetch off"
		if on {
			name = "prefetch on"
		}
		tab3.Row(name, res.Threads[0].FetchStall, fmt.Sprintf("%.2f", res.IPC()),
			res.IC.PrefetchUseful)
	}
	tab3.Render(os.Stdout)
}
