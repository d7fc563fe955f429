// Generational: run the same LSPR-style workload across the modeled
// zEC12, z13, z14 and z15 predictors and watch MPKI fall -- the shape of
// the paper's headline result (§VIII).
package main

import (
	"context"
	"fmt"
	"os"

	"zbp/internal/core"
	"zbp/internal/metrics"
	"zbp/internal/sim"
	"zbp/internal/workload"
)

func main() {
	const n = 1_000_000
	tab := metrics.NewTable("machine", "MPKI", "accuracy", "IPC", "surprises")
	var prev float64
	for _, gen := range core.Generations() {
		src, err := workload.Make("lspr", 42)
		if err != nil {
			panic(err)
		}
		res, err := sim.RunWorkloadCtx(context.Background(), sim.ForGeneration(gen), src, n)
		if err != nil {
			panic(err)
		}
		delta := ""
		if prev > 0 {
			delta = " (" + metrics.Delta(prev, res.MPKI()) + ")"
		}
		tab.Row(gen.Name,
			fmt.Sprintf("%.2f%s", res.MPKI(), delta),
			fmt.Sprintf("%.4f", res.Accuracy()),
			fmt.Sprintf("%.2f", res.IPC()),
			res.Threads[0].Surprises)
		prev = res.MPKI()
	}
	fmt.Printf("LSPR-style workload, %d instructions per machine:\n\n", n)
	tab.Render(os.Stdout)
	fmt.Println("\npaper §VIII: mispredicts/1K instructions fell 9.6% (z13->z14)")
	fmt.Println("and another 25% (z14->z15) on LSPR workloads.")
}
