// Quickstart: build a z15 predictor, feed it a workload, read the
// results -- then poke the low-level core API directly.
package main

import (
	"context"
	"fmt"

	"zbp/internal/btb"
	"zbp/internal/core"
	"zbp/internal/sat"
	"zbp/internal/sim"
	"zbp/internal/workload"
	"zbp/internal/zarch"
)

func main() {
	// --- High level: run a synthetic workload on the full model. ---
	src, err := workload.Make("patterned", 42)
	if err != nil {
		panic(err)
	}
	res, err := sim.RunWorkloadCtx(context.Background(), sim.Z15(), src, 500_000)
	if err != nil {
		panic(err)
	}

	fmt.Println("z15 on the `patterned` workload:")
	fmt.Printf("  instructions      %d\n", res.Instructions())
	fmt.Printf("  cycles            %d (IPC %.2f)\n", res.Cycles, res.IPC())
	fmt.Printf("  branch accuracy   %.2f%%\n", 100*res.Accuracy())
	fmt.Printf("  MPKI              %.2f\n", res.MPKI())
	fmt.Printf("  CPRED fast redirects %d (taken branch every ~2 cycles)\n\n",
		res.Core.CPredFastRedirects)

	// --- Low level: drive the asynchronous lookahead core by hand. ---
	c := core.New(core.Z15())

	// Teach the BTB1 about one taken branch (as a completed surprise
	// would), then restart the search at the top of its line.
	c.Preload(1, btb.Info{
		Addr: 0x10008, Len: 4, Kind: zarch.KindUncondRel,
		Target: 0x20000, BHT: sat.StrongT, Skoot: btb.SkootUnknown,
	})
	c.Restart(0, 0x10000, 0)

	// The predictor searches ahead on its own clock; predictions appear
	// at the b5 stage of the 6-cycle pipeline.
	for i := 0; i < 10; i++ {
		c.Cycle()
		if p, ok := c.PopPred(0); ok {
			fmt.Printf("cycle %d: predicted branch at %s -> %s (taken=%v, stream %d)\n",
				c.Clock(), p.Addr, p.Target, p.Taken, p.Stream)
			break
		}
	}
	fmt.Printf("the BPL kept searching ahead: now at stream %d\n", streamOf(c))
}

func streamOf(c *core.Core) uint64 {
	s, _, _ := c.SearchProgress(0)
	return s
}
