// Package equiv is the differential/metamorphic self-check layer of
// the simulator, the software analogue of the paper's §VII
// crosschecking methodology: instead of trusting any single execution
// path, the same (config, workload, seed, budget) cell is pushed
// through pairs of paths that must agree exactly — packed replay vs
// streaming generation, pooled vs direct execution, cancellable vs
// plain run loop, event-log reconstruction (a run with an EventSink
// attached) vs counter aggregation — plus metamorphic invariants
// (capacity monotonicity, prefix bounds, SMT2 aggregation sanity) that
// need not be exact but bound how results may move.
//
// Every perf PR runs this harness (cmd/zdiff, `make diff-smoke`)
// before it lands: the map-order nondeterminism in icache.Tick and the
// packed-vs-streaming drift that earlier PRs caught with one-off tests
// are exactly the class of bug these checks detect systematically.
package equiv

import (
	"context"
	"fmt"
	"slices"

	"zbp/internal/core"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/verif"
	"zbp/internal/workload"
)

// Cell is one differential test point: everything needed to
// reconstruct the identical simulation along every execution path.
type Cell struct {
	// Config is a machine-generation preset name (zEC12, z13, z14,
	// z15).
	Config string
	// Workload names the synthetic workload (see workload.Names).
	Workload string
	// Seed is the workload generator seed.
	Seed uint64
	// Instructions is the per-thread budget; every path materializes or
	// limits to exactly this many records.
	Instructions int
}

// Name renders the cell as "config/workload/s<seed>/n<budget>".
func (c Cell) Name() string {
	return fmt.Sprintf("%s/%s/s%d/n%d", c.Config, c.Workload, c.Seed, c.Instructions)
}

// CheckKind classifies a check's strictness.
type CheckKind uint8

const (
	// Exact checks demand byte-identical stats JSON between two paths.
	Exact CheckKind = iota
	// Invariant checks are metamorphic: they bound how a transformed
	// run's metrics may differ, without demanding equality.
	Invariant
)

func (k CheckKind) String() string {
	if k == Exact {
		return "exact"
	}
	return "invariant"
}

// Check is one registered equivalence check.
type Check struct {
	Name string
	Kind CheckKind
	run  func(ctx context.Context, env *cellEnv, rep *verif.DiffReport) error
}

// Checks returns every registered check in execution order: the four
// exact pairs first, then the metamorphic invariants.
func Checks() []Check {
	return []Check{
		{"packed-vs-streaming", Exact, checkPackedVsStreaming},
		{"pool-1-vs-n", Exact, checkPool1VsN},
		{"run-vs-runctx", Exact, checkRunVsRunCtx},
		{"event-replay", Exact, checkEventReplay},
		{"btb1-monotonic", Invariant, checkBTB1Monotonic},
		{"warmup-prefix", Invariant, checkWarmupPrefix},
		{"smt2-vs-2xst", Invariant, checkSMT2VsST},
	}
}

// CheckNames returns the registered check names in execution order.
func CheckNames() []string {
	cs := Checks()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// ValidateChecks rejects any name that is not a registered check, so
// a stale or misspelled name fails loudly instead of silently running
// fewer checks.
func ValidateChecks(names []string) error {
	known := CheckNames()
	for _, n := range names {
		if !slices.Contains(known, n) {
			return fmt.Errorf("unknown check %q (have %v)", n, known)
		}
	}
	return nil
}

// Options tune one harness run.
type Options struct {
	// Checks selects a subset by name; nil or empty runs every check.
	// An unknown name fails the cell (see ValidateChecks).
	Checks []string
	// Perturb deliberately corrupts the second side of the exact pairs
	// (one BTB1/BHT entry preloaded before the run) so a harness
	// deployment can prove, end to end, that a real divergence is
	// detected and attributed. A healthy harness run with Perturb set
	// MUST report divergences.
	Perturb bool
}

func (o Options) selected() ([]Check, error) {
	if err := ValidateChecks(o.Checks); err != nil {
		return nil, err
	}
	all := Checks()
	if len(o.Checks) == 0 {
		return all, nil
	}
	return slices.DeleteFunc(all, func(c Check) bool { return !slices.Contains(o.Checks, c.Name) }), nil
}

// CheckResult is one check's outcome on one cell.
type CheckResult struct {
	Name     string
	Kind     CheckKind
	Findings []verif.Finding
}

// OK reports a clean check.
func (r CheckResult) OK() bool { return len(r.Findings) == 0 }

// CellResult aggregates every check run on one cell.
type CellResult struct {
	Cell   Cell
	Checks []CheckResult
	// Err is set when the cell could not be evaluated at all (unknown
	// config/workload/check, canceled context); Checks is then empty.
	Err error
}

// OK reports a cell with no findings and no setup error.
func (r CellResult) OK() bool {
	if r.Err != nil {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK() {
			return false
		}
	}
	return true
}

// Findings flattens every check's findings.
func (r CellResult) Findings() []verif.Finding {
	var out []verif.Finding
	for _, c := range r.Checks {
		out = append(out, c.Findings...)
	}
	return out
}

// cellEnv is the shared per-cell state every check runs against: the
// resolved config, the materialized packed trace, and the canonical
// baseline (one packed-cursor run) most pairs compare to.
type cellEnv struct {
	cell   Cell
	cfg    sim.Config
	packed *trace.Packed
	// base is the canonical result: a packed-cursor sim.RunCtx run with
	// no sinks, no pool, no perturbation.
	base     sim.Result
	baseJSON []byte
	opts     Options
}

// CheckCell runs the selected checks on one cell. The context cancels
// long cells cooperatively (every simulation inside runs on the RunCtx
// path); a canceled cell returns with Err set. A non-nil error means
// the cell could not be evaluated; divergences are reported through the
// CellResult's findings, not through the error.
func CheckCell(ctx context.Context, cell Cell, opts Options) CellResult {
	res := CellResult{Cell: cell}
	checks, err := opts.selected()
	if err != nil {
		res.Err = err
		return res
	}
	env, err := newCellEnv(ctx, cell, opts)
	if err != nil {
		res.Err = err
		return res
	}
	for _, ck := range checks {
		rep := &verif.DiffReport{}
		if err := ck.run(ctx, env, rep); err != nil {
			res.Err = fmt.Errorf("equiv: %s on %s: %w", ck.Name, cell.Name(), err)
			return res
		}
		res.Checks = append(res.Checks, CheckResult{Name: ck.Name, Kind: ck.Kind, Findings: rep.Findings})
	}
	return res
}

func newCellEnv(ctx context.Context, cell Cell, opts Options) (*cellEnv, error) {
	if cell.Instructions <= 0 {
		return nil, fmt.Errorf("equiv: cell %s needs a positive instruction budget", cell.Name())
	}
	gen, err := core.ByName(cell.Config)
	if err != nil {
		return nil, err
	}
	packed, err := workload.MakePacked(cell.Workload, cell.Seed, cell.Instructions)
	if err != nil {
		return nil, err
	}
	env := &cellEnv{cell: cell, cfg: sim.ForGeneration(gen), packed: packed, opts: opts}
	cur := packed.Cursor()
	env.base, err = sim.New(env.cfg, []trace.Source{&cur}).RunCtx(ctx, 0)
	if err != nil {
		return nil, err
	}
	env.baseJSON, err = env.base.StatsJSON()
	if err != nil {
		return nil, err
	}
	return env, nil
}

// Grid builds the cartesian product of configs x workloads as cells.
func Grid(configs, workloads []string, seed uint64, instructions int) []Cell {
	cells := make([]Cell, 0, len(configs)*len(workloads))
	for _, cfg := range configs {
		for _, wl := range workloads {
			cells = append(cells, Cell{Config: cfg, Workload: wl, Seed: seed, Instructions: instructions})
		}
	}
	return cells
}
