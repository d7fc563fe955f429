package equiv

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"zbp/internal/core"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

const (
	testSeed  = 42
	testScale = 4000
)

// testGrid is the cell grid the package test sweeps: every workload on
// z15, and a representative workload subset on the other generations
// (the full preset x config grid is zdiff's job, exercised by `make
// diff-smoke`). Short mode trims to one generation.
func testGrid(t *testing.T) []Cell {
	t.Helper()
	cells := Grid([]string{"z15"}, workload.Names(), testSeed, testScale)
	if !testing.Short() {
		cells = append(cells, Grid(
			[]string{"zEC12", "z13", "z14"},
			[]string{"loops", "callret", "indirect", "patterned", "lspr-small"},
			testSeed, testScale)...)
	}
	return cells
}

// TestCheckGridClean is the harness's own tier-1 gate: every cell in
// the grid must pass every registered check with zero findings.
func TestCheckGridClean(t *testing.T) {
	cells := testGrid(t)
	results := CheckGrid(context.Background(), cells, Options{}, 0)
	if len(results) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(results), len(cells))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Cell.Name(), r.Err)
			continue
		}
		if got, want := len(r.Checks), len(Checks()); got != want {
			t.Errorf("%s: ran %d checks, want %d", r.Cell.Name(), got, want)
		}
		for _, f := range r.Findings() {
			t.Errorf("divergence: %s", f)
		}
	}
}

// TestCheckGridDeterministic reruns one cell at different grid
// parallelism and demands identical findings (none) and results.
func TestCheckGridDeterministic(t *testing.T) {
	cells := Grid([]string{"z15", "zEC12"}, []string{"callret", "indirect"}, testSeed, testScale)
	a := CheckGrid(context.Background(), cells, Options{}, 1)
	b := CheckGrid(context.Background(), cells, Options{}, 4)
	for i := range cells {
		if a[i].Cell != b[i].Cell {
			t.Fatalf("cell %d order differs: %s vs %s", i, a[i].Cell.Name(), b[i].Cell.Name())
		}
		if a[i].OK() != b[i].OK() {
			t.Errorf("cell %s verdict differs across parallelism", cells[i].Name())
		}
	}
}

// TestPerturbDetected seeds a deliberate divergence (one BTB1 entry
// preloaded with an inverted BHT counter) and requires the harness to
// detect it, attributing the finding to the right cell and naming the
// first diverging metric — the end-to-end proof the acceptance
// criteria ask for.
func TestPerturbDetected(t *testing.T) {
	cell := Cell{Config: "z15", Workload: "patterned", Seed: testSeed, Instructions: testScale}
	res := CheckCell(context.Background(), cell, Options{
		Perturb: true,
		// Exact pairs that route through the perturbed sim constructor.
		Checks: []string{"packed-vs-streaming", "run-vs-runctx", "event-replay"},
	})
	if res.Err != nil {
		t.Fatalf("perturbed cell errored: %v", res.Err)
	}
	findings := res.Findings()
	if len(findings) == 0 {
		t.Fatal("perturbed run reported no divergence: the harness cannot detect real bugs")
	}
	for _, f := range findings {
		if f.Cell != cell.Name() {
			t.Errorf("finding attributed to %q, want %q", f.Cell, cell.Name())
		}
		if f.Check == "" {
			t.Errorf("finding without a check name: %s", f)
		}
	}
	// At least one finding must name the first diverging metric.
	named := false
	for _, f := range findings {
		if f.Metric != "" {
			named = true
			break
		}
	}
	if !named {
		t.Errorf("no finding names a diverging metric: %v", findings)
	}
}

// TestPerturbEachExactPair verifies the divergence knob trips every
// exact pair that reruns the simulator individually, so a regression
// in any single checker's comparison logic is caught.
func TestPerturbEachExactPair(t *testing.T) {
	if testing.Short() {
		t.Skip("per-check perturbation sweep skipped in short mode")
	}
	cell := Cell{Config: "z15", Workload: "patterned", Seed: testSeed, Instructions: testScale}
	for _, name := range []string{"packed-vs-streaming", "run-vs-runctx", "event-replay"} {
		res := CheckCell(context.Background(), cell, Options{Perturb: true, Checks: []string{name}})
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if len(res.Findings()) == 0 {
			t.Errorf("check %s did not flag the perturbed run", name)
		}
	}
}

// TestPerturbOneFindsBranch checks the knob actually poisons state.
func TestPerturbOneFindsBranch(t *testing.T) {
	p, err := workload.MakePacked("loops", testSeed, 1000)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.ByName("z15")
	if err != nil {
		t.Fatal(err)
	}
	cur := p.Cursor()
	s := sim.New(sim.ForGeneration(gen), []trace.Source{&cur})
	if !perturbOne(s, p) {
		t.Fatal("perturbOne found no conditional branch in the loops workload")
	}
}

// TestPackedFileRoundTrip materializes a cell, round-trips it through
// the on-disk trace format, and runs the equivalence checks against
// the reloaded buffer — the file I/O path must be as invisible as the
// in-memory one. (Folds the old sim packed-equivalence coverage.)
func TestPackedFileRoundTrip(t *testing.T) {
	p, err := workload.MakePacked("callret", testSeed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cell.ztr")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	q, err := trace.LoadPackedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.ByName("z15")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ForGeneration(gen)
	run := func(p *trace.Packed) string {
		t.Helper()
		cur := p.Cursor()
		res, err := sim.New(cfg, []trace.Source{&cur}).RunCtx(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	if a, b := run(p), run(q); a != b {
		t.Error("stats diverge between in-memory and file-round-tripped packed trace")
	}
}

// TestCheckCellBadInputs exercises the setup error paths.
func TestCheckCellBadInputs(t *testing.T) {
	for _, cell := range []Cell{
		{Config: "z99", Workload: "loops", Seed: 1, Instructions: 100},
		{Config: "z15", Workload: "no-such-workload", Seed: 1, Instructions: 100},
		{Config: "z15", Workload: "loops", Seed: 1, Instructions: 0},
	} {
		if res := CheckCell(context.Background(), cell, Options{}); res.Err == nil {
			t.Errorf("cell %s: want setup error, got none", cell.Name())
		}
	}
}

// TestCheckGridCanceled verifies canceled grids fail closed: every
// unevaluated cell carries the context error rather than passing.
func TestCheckGridCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := Grid([]string{"z15"}, []string{"loops", "callret"}, testSeed, 1000)
	results := CheckGrid(ctx, cells, Options{}, 1)
	for _, r := range results {
		if r.OK() {
			t.Errorf("cell %s passed under a canceled context", r.Cell.Name())
		}
	}
}

// TestCheckNamesSelect covers subset selection and unknown names.
func TestCheckNamesSelect(t *testing.T) {
	names := CheckNames()
	if len(names) != len(Checks()) {
		t.Fatalf("CheckNames returned %d names for %d checks", len(names), len(Checks()))
	}
	if err := ValidateChecks(names); err != nil {
		t.Fatalf("registered names rejected: %v", err)
	}
	opts := Options{Checks: []string{"warmup-prefix"}}
	sel, err := opts.selected()
	if err != nil || len(sel) != 1 || sel[0].Name != "warmup-prefix" {
		t.Fatalf("selected() = %v, %v, want just warmup-prefix", sel, err)
	}
	res := CheckCell(context.Background(),
		Cell{Config: "z15", Workload: "loops", Seed: testSeed, Instructions: 1000},
		opts)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Checks) != 1 || res.Checks[0].Name != "warmup-prefix" {
		t.Fatalf("ran %v, want just warmup-prefix", res.Checks)
	}
	// A known name beside an unknown one must not run the known one
	// alone and report clean.
	opts.Checks = append(opts.Checks, "bogus-check")
	if _, err := opts.selected(); err == nil {
		t.Fatal("selected() accepted an unknown check name")
	}
}

// TestCheckCellUnknownCheck pins that a stale or misspelled check name
// fails the cell instead of running zero checks and reporting OK.
func TestCheckCellUnknownCheck(t *testing.T) {
	res := CheckCell(context.Background(),
		Cell{Config: "z15", Workload: "loops", Seed: testSeed, Instructions: 1000},
		Options{Checks: []string{"no-such-check"}})
	if res.Err == nil {
		t.Fatalf("unknown check name accepted: ran %d checks, OK=%v", len(res.Checks), res.OK())
	}
	if !strings.Contains(res.Err.Error(), `"no-such-check"`) {
		t.Errorf("error %q does not name the unknown check", res.Err)
	}
}

// TestFindingString pins the report line shape other layers parse.
func TestFindingString(t *testing.T) {
	res := CheckCell(context.Background(),
		Cell{Config: "z15", Workload: "patterned", Seed: testSeed, Instructions: testScale},
		Options{Perturb: true, Checks: []string{"packed-vs-streaming"}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	fs := res.Findings()
	if len(fs) == 0 {
		t.Fatal("expected a finding")
	}
	line := fs[0].String()
	for _, want := range []string{"[packed-vs-streaming]", "z15/patterned"} {
		if !strings.Contains(line, want) {
			t.Errorf("finding line %q missing %q", line, want)
		}
	}
}
