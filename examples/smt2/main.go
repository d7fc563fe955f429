// SMT2: two threads sharing the z15's single 64-byte search port on
// alternating cycles (paper §IV), compared against the same work run
// back-to-back on one thread, and against the pre-z15 dual-port design.
package main

import (
	"context"
	"fmt"
	"os"

	"zbp/internal/core"
	"zbp/internal/metrics"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

const n = 400_000

func srcs(seedA, seedB uint64) []trace.Source {
	a, err := workload.Make("lspr-small", seedA)
	if err != nil {
		panic(err)
	}
	b, err := workload.Make("micro", seedB)
	if err != nil {
		panic(err)
	}
	return []trace.Source{trace.Limit(a, n), trace.Limit(b, n)}
}

func run(cfg sim.Config, srcs []trace.Source) sim.Result {
	res, err := sim.New(cfg, srcs).RunCtx(context.Background(), 0)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	tab := metrics.NewTable("configuration", "cycles", "aggregate IPC", "MPKI")

	// z15 SMT2: both threads at once, one shared port.
	smt := run(sim.Z15(), srcs(1, 2))
	tab.Row("z15 SMT2 (shared 64B port)", smt.Cycles,
		fmt.Sprintf("%.2f", smt.IPC()), fmt.Sprintf("%.2f", smt.MPKI()))

	// z15 single-thread, back to back.
	var totalCycles int64
	var totalInstr int64
	for _, src := range srcs(1, 2) {
		res := run(sim.Z15(), []trace.Source{src})
		totalCycles += res.Cycles
		totalInstr += res.Instructions()
	}
	tab.Row("z15 two ST runs, serialized", totalCycles,
		fmt.Sprintf("%.2f", float64(totalInstr)/float64(totalCycles)), "--")

	// z14 SMT2: dual 32B ports, each thread searches every cycle.
	z14 := sim.ForGeneration(core.Z14())
	smt14 := run(z14, srcs(1, 2))
	tab.Row("z14 SMT2 (dual 32B ports)", smt14.Cycles,
		fmt.Sprintf("%.2f", smt14.IPC()), fmt.Sprintf("%.2f", smt14.MPKI()))

	fmt.Printf("two heterogeneous threads, %d instructions each:\n\n", n)
	tab.Render(os.Stdout)
	fmt.Println("\nSMT2 finishes the pair faster than serializing them, at the cost")
	fmt.Println("of per-thread search rate (taken-branch period 6 vs 5 without CPRED).")
}
