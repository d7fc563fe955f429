package sim

import (
	"fmt"
	"io"

	"zbp/internal/metrics"
)

// Register exposes every counter, histogram and derived gauge of the
// result in reg. The receiver must outlive the registry: counters are
// registered by pointer into the result's own stats structs.
//
// This is the machine-readable export path: the text reports in
// cmd/zsim and internal/exp are renderers over the same counters, and
// the golden-run harness diffs the serialized snapshot.
func (r *Result) Register(reg *metrics.Registry) {
	reg.Label("config", r.Name)
	reg.Counter("sim.cycles", &r.Cycles)
	r.Core.Register(reg, "core")
	r.BTB1.Register(reg, "btb1")
	r.BTB2.Register(reg, "btb2")
	r.Dir.Register(reg, "dir")
	r.Tgt.Register(reg, "tgt")
	r.CPred.Register(reg, "cpred")
	r.IC.Register(reg, "icache")
	for i := range r.Threads {
		r.Threads[i].Register(reg, fmt.Sprintf("thread%d", i))
	}
	reg.Gauge("sim.instructions", func() float64 { return float64(r.Instructions()) })
	reg.Gauge("sim.branches", func() float64 { return float64(r.Branches()) })
	reg.Gauge("sim.mispredicts", func() float64 { return float64(r.Mispredicts()) })
	reg.Gauge("sim.mpki", r.MPKI)
	reg.Gauge("sim.ipc", r.IPC)
	reg.Gauge("sim.accuracy", r.Accuracy)
}

// StatsSnapshot captures the result's full metric set as a
// deterministic, schema-versioned snapshot. Identical results always
// serialize byte-identically (sorted keys, integer counters,
// shortest-round-trip floats), so snapshots can be diffed in CI.
func (r *Result) StatsSnapshot() metrics.Snapshot {
	reg := metrics.NewRegistry()
	r.Register(reg)
	return reg.Snapshot()
}

// WriteStatsJSON writes the canonical stats-JSON form of the result
// (the `zsim -stats-json` payload) to w.
func (r *Result) WriteStatsJSON(w io.Writer) error {
	return r.StatsSnapshot().WriteJSON(w)
}

// StatsJSON returns the canonical stats-JSON bytes of the result.
func (r *Result) StatsJSON() ([]byte, error) {
	return r.StatsSnapshot().MarshalIndent()
}
