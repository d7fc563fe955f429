package equiv

import (
	"context"
	"testing"

	"zbp/internal/rcache"
	"zbp/internal/workload"
)

// FuzzEquivCell throws randomized (config, workload, seed, budget)
// cells at a cheap subset of the equivalence checks: any divergence or
// unexpected setup failure is a crash. The corpus seeds pin the cells
// that matter historically (the packed-vs-streaming drift class) plus
// budget edge cases around the run loop's context poll mask.
func FuzzEquivCell(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint64(42), uint16(2000))
	f.Add(uint8(0), uint8(2), uint64(7), uint16(500))
	// Budgets straddling the RunCtx 4096-cycle poll boundary.
	f.Add(uint8(3), uint8(5), uint64(1), uint16(4096))
	f.Add(uint8(1), uint8(8), uint64(0xffffffffffffffff), uint16(4097))
	f.Add(uint8(2), uint8(10), uint64(0), uint16(3999))

	configs := []string{"zEC12", "z13", "z14", "z15"}
	workloads := workload.Names()
	opts := Options{Checks: []string{"packed-vs-streaming", "event-replay", "run-vs-runctx", "warmup-prefix"}}

	f.Fuzz(func(t *testing.T, cfgIdx, wlIdx uint8, seed uint64, scale uint16) {
		cell := rcache.CellSpec{
			Config:   configs[int(cfgIdx)%len(configs)],
			Workload: workloads[int(wlIdx)%len(workloads)],
			Seed:     seed,
			// Keep cells cheap but nontrivial.
			Instructions: 500 + int(scale)%3500,
		}
		res := CheckCell(context.Background(), cell, opts)
		if res.Err != nil {
			t.Fatalf("cell %s failed to evaluate: %v", cell.Name(), res.Err)
		}
		for _, fd := range res.Findings() {
			t.Errorf("divergence: %s", fd)
		}
	})
}
