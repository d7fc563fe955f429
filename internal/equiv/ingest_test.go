package equiv

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"zbp/internal/core"
	"zbp/internal/rcache"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// writeIngestedTrace builds a ChampSim-format file from a generator
// trace and re-ingests it into a .zbpt under dir, returning the .zbpt
// path. The external leg exercises the whole adapter, so the equiv
// tests below run over a genuinely ingested stream.
func writeIngestedTrace(t *testing.T, dir string, seed uint64, n int) string {
	t.Helper()
	p, err := workload.MakePacked("loops", seed, n)
	if err != nil {
		t.Fatal(err)
	}
	champ := filepath.Join(dir, "t.champsim")
	f, err := os.Create(champ)
	if err != nil {
		t.Fatal(err)
	}
	cur := p.Cursor()
	if _, err := trace.ExportChampSim(f, &cur, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ingested, _, err := trace.IngestChampSimFile(champ, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "t.zbpt")
	if err := ingested.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestIngestedTracePackedVsStreaming: simulating an ingested external
// trace must produce byte-identical canonical stats whether the
// records arrive through the materialized packed path or the
// streaming file cursor — the same equivalence contract the
// generators carry.
func TestIngestedTracePackedVsStreaming(t *testing.T) {
	path := writeIngestedTrace(t, t.TempDir(), 42, 30_000)
	name := workload.FilePrefix + path
	gen, err := core.ByName("z15")
	if err != nil {
		t.Fatal(err)
	}

	run := func(src trace.Source) []byte {
		res, err := sim.New(sim.ForGeneration(gen), []trace.Source{src}).RunCtx(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	p, err := workload.MakePacked(name, 42, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	cur := p.Cursor()
	packed := run(&cur)

	streaming, err := workload.Make(name, 42)
	if err != nil {
		t.Fatal(err)
	}
	stream := run(streaming)

	if !bytes.Equal(packed, stream) {
		t.Fatal("packed and streaming stats diverge for an ingested trace")
	}
}

// TestAuditDetectsSwappedTraceFile is the end-to-end staleness proof:
// cache a file-backed cell's honest stats, swap the file's bytes on
// disk, and the auditor — recomputing from the name — must flag the
// now-stale payload. In production the digest-keyed cache prevents
// the stale read in the first place; the audit is the backstop that
// would catch a regression in that keying.
func TestAuditDetectsSwappedTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := writeIngestedTrace(t, dir, 42, 20_000)
	cell := rcache.CellSpec{Config: "z15", Workload: workload.FilePrefix + path, Seed: 42, Instructions: 20_000}

	payload := auditFixture(t, cell)
	if findings := recomputeAndAudit(t, cell, payload); len(findings) != 0 {
		t.Fatalf("honest file-backed payload flagged: %+v", findings)
	}

	// Swap the trace's content under the same path.
	swapped := writeIngestedTrace(t, dir, 43, 20_000)
	if swapped != path {
		t.Fatalf("fixture wrote %s, want %s", swapped, path)
	}
	if findings := recomputeAndAudit(t, cell, payload); len(findings) == 0 {
		t.Fatal("audit missed a swapped trace file: stale cached stats audit clean")
	}
}
