package exp

import (
	"bytes"
	"strings"
	"testing"

	"zbp/internal/core"
)

func TestAllExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(Options{W: &buf, Scale: 60000, Seed: 3})
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("report missing banner:\n%s", out)
			}
			if len(out) < 200 {
				t.Errorf("suspiciously short report:\n%s", out)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("mpki"); !ok {
		t.Error("mpki experiment missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id found")
	}
	if len(All()) != 12 {
		t.Errorf("experiments = %d, want 12", len(All()))
	}
}

func TestTakenPeriodMatchesPaper(t *testing.T) {
	noCp := core.Z15()
	noCp.CPred.Entries = 0
	if p := takenPeriod(noCp, false); p < 4.8 || p > 5.4 {
		t.Errorf("no-CPRED ST period = %.2f, want ~5 (figure 4)", p)
	}
	if p := takenPeriod(core.Z15(), false); p < 1.9 || p > 2.4 {
		t.Errorf("CPRED ST period = %.2f, want ~2 (figure 5)", p)
	}
	if p := takenPeriod(noCp, true); p < 5.7 || p > 6.5 {
		t.Errorf("no-CPRED SMT2 period = %.2f, want ~6 (§IV)", p)
	}
}

// TestWeakLoopPathologyShape is the E10 oracle: on the weak-loop
// workload, disabling the speculative trackers raises wrong directions
// sharply with the BHT alone (the §IV scenario) and never lowers them
// on full z15.
func TestWeakLoopPathologyShape(t *testing.T) {
	wrong := map[string]int64{}
	for i, res := range e10Runs(Options{Scale: 150000, Seed: 3}) {
		wrong[e10Variants[i].label] = res.Threads[0].DynWrongDir
	}
	row := func(label string) int64 {
		t.Helper()
		n, ok := wrong[label]
		if !ok {
			t.Fatalf("E10 has no %q row (rows: %v)", label, wrong)
		}
		return n
	}
	if on, off := row("BHT only, SBHT 8 entries"), row("BHT only, SBHT disabled"); float64(off) < 1.2*float64(on) {
		t.Errorf("BHT only: %d wrong directions with SBHT disabled, want >= 1.2x the %d with it enabled", off, on)
	}
	if on, off := row("full z15, SBHT/SPHT 8 entries"), row("full z15, SBHT/SPHT disabled"); off < on {
		t.Errorf("full z15: %d wrong directions with SBHT/SPHT disabled, fewer than the %d with them enabled", off, on)
	}
}
