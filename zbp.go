// Package zbp is a trace-driven, cycle-approximate Go model of the IBM
// z15 asynchronous lookahead branch predictor (Adiga et al., "The IBM
// z15 High Frequency Mainframe Branch Predictor", ISCA 2020), together
// with the zEC12/z13/z14 baseline configurations, synthetic LSPR-style
// workload generators, an instruction-cache hierarchy, a front-end
// consumption model, and a white-box verification harness.
//
// This package is the public facade: it re-exports the types and
// constructors a downstream user needs. The implementation lives in
// internal/ packages, one per modeled subsystem (see DESIGN.md).
//
// Quick start:
//
//	src, _ := zbp.NewWorkload("lspr", 42)
//	res, _ := zbp.Run(zbp.Z15(), src, 1_000_000)
//	fmt.Printf("MPKI %.2f, IPC %.2f\n", res.MPKI(), res.IPC())
package zbp

import (
	"context"

	"zbp/internal/core"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// Config is a full simulation setup: predictor core, front end and
// I-cache hierarchy.
type Config = sim.Config

// Result aggregates everything one run produced; see its methods
// (MPKI, IPC, Accuracy, ...) and embedded per-structure statistics.
type Result = sim.Result

// Source is a stream of architectural instruction records.
type Source = trace.Source

// Sim is a wired-up simulation instance for multi-step or SMT2 use.
type Sim = sim.Sim

// MachineConfig is a predictor-core configuration (one generation).
type MachineConfig = core.Config

// Z15 returns the full z15 model: 16K/128K two-level BTB, TAGE
// short+long PHT, perceptron, CTB-17, CRS with amnesty, CPRED with
// SKOOT, semi-inclusive BTB2 with periodic refresh.
func Z15() Config { return sim.Z15() }

// Z14 returns the z14 baseline (single PHT, BTBP, no SKOOT).
func Z14() Config { return sim.ForGeneration(core.Z14()) }

// Z13 returns the z13 baseline (9-deep GPV, no perceptron/CRS/CPRED).
func Z13() Config { return sim.ForGeneration(core.Z13()) }

// ZEC12 returns the original two-level design (4K/24K BTB).
func ZEC12() Config { return sim.ForGeneration(core.ZEC12()) }

// Generations returns the four machine presets oldest-first.
func Generations() []MachineConfig { return core.Generations() }

// Workloads lists the built-in synthetic workload names.
func Workloads() []string { return workload.Names() }

// NewWorkload builds a named deterministic workload trace source.
func NewWorkload(name string, seed uint64) (Source, error) {
	return workload.Make(name, seed)
}

// Limit bounds a source to n records.
func Limit(src Source, n int) Source { return trace.Limit(src, n) }

// Packed is an immutable, pre-validated, fully materialized trace.
// Build it once (MaterializeWorkload, trace.Pack or trace.LoadPacked)
// and replay it from any number of concurrent simulations via
// value-type cursors — the materialize-once, replay-many path every
// sweep in this repository uses.
type Packed = trace.Packed

// MaterializeWorkload generates n instructions of the named workload
// once and packs them for repeated replay (see the example). n must be
// positive. Replays are byte-identical to the streaming source.
func MaterializeWorkload(name string, seed uint64, n int) (*Packed, error) {
	return workload.MakePacked(name, seed, n)
}

// ErrLiveLock reports that a simulation stopped making forward
// progress, which indicates a model bug. Returned (wrapped) by Run and
// RunContext.
var ErrLiveLock = sim.ErrLiveLock

// Run simulates n instructions of src on cfg (single thread). The
// error is non-nil only on live-lock (ErrLiveLock), a model bug.
func Run(cfg Config, src Source, n int) (Result, error) {
	return sim.RunWorkloadCtx(context.Background(), cfg, src, n)
}

// RunContext is Run with cooperative cancellation: when ctx is
// canceled mid-run the simulation stops within microseconds and
// returns the partial result (Truncated set) alongside ctx's error.
// This is the entry point for servers and other long-running
// processes; see also cmd/zbpd, which serves it over HTTP.
func RunContext(ctx context.Context, cfg Config, src Source, n int) (Result, error) {
	return sim.RunWorkloadCtx(ctx, cfg, src, n)
}

// NewSim builds a simulation over one source per hardware thread
// (pass two sources for SMT2). Bound the sources with Limit.
func NewSim(cfg Config, srcs []Source) *Sim { return sim.New(cfg, srcs) }
