package equiv

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"zbp/internal/core"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/verif"
	"zbp/internal/workload"
)

// auditFixture recomputes cell the same way a healthy cache fill
// would, returning the canonical stats payload.
func auditFixture(t *testing.T, cell rcache.CellSpec) []byte {
	t.Helper()
	gen, err := core.ByName(cell.Config)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.MakePacked(cell.Workload, cell.Seed, cell.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	cur := p.Cursor()
	srcs := []trace.Source{&cur}
	if cell.Workload2 != "" {
		p2, err := workload.MakePacked(cell.Workload2, cell.Seed+1, cell.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		cur2 := p2.Cursor()
		srcs = append(srcs, &cur2)
	}
	res, err := sim.New(sim.ForGeneration(gen), srcs).RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var auditCell = rcache.CellSpec{Config: "z15", Workload: "loops", Seed: 42, Instructions: 20_000}

// recomputeAndAudit is the auditor's whole verdict on one cached
// payload: recompute the cell, then compare.
func recomputeAndAudit(t *testing.T, cell rcache.CellSpec, cached []byte) []verif.Finding {
	t.Helper()
	fresh, err := Recompute(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Audit(cell, fresh, cached)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestAuditCleanPayload: an honestly cached payload audits clean.
func TestAuditCleanPayload(t *testing.T) {
	payload := auditFixture(t, auditCell)
	if findings := recomputeAndAudit(t, auditCell, payload); len(findings) != 0 {
		t.Fatalf("clean payload flagged: %+v", findings)
	}
}

// TestAuditCleanSMT2: the Workload2/Seed+1 convention round-trips —
// an audit that materialized the second thread any other way would
// flag every SMT2 cell.
func TestAuditCleanSMT2(t *testing.T) {
	cell := rcache.CellSpec{Config: "z15", Workload: "loops", Workload2: "micro", Seed: 42, Instructions: 20_000}
	payload := auditFixture(t, cell)
	if findings := recomputeAndAudit(t, cell, payload); len(findings) != 0 {
		t.Fatalf("clean SMT2 payload flagged: %+v", findings)
	}
}

// TestAuditDetectsTamperedMetric: a payload whose sim.cycles was
// nudged by one — the minimal poisoning — is flagged with the
// offending metric named.
func TestAuditDetectsTamperedMetric(t *testing.T) {
	payload := auditFixture(t, auditCell)
	var snap metrics.Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Counters["sim.cycles"]++
	tampered, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	findings := recomputeAndAudit(t, auditCell, tampered)
	if len(findings) != 1 {
		t.Fatalf("findings = %+v, want exactly one", findings)
	}
	f := findings[0]
	if f.Check != AuditCheck {
		t.Errorf("check %q, want %q", f.Check, AuditCheck)
	}
	if f.Metric != "sim.cycles" {
		t.Errorf("metric %q, want the tampered counter", f.Metric)
	}
	if !strings.Contains(f.Detail, "diverges from fresh recomputation") {
		t.Errorf("detail %q", f.Detail)
	}
}

// TestAuditDetectsGarbagePayload: bytes that are not stats JSON at
// all are corruption, reported as such.
func TestAuditDetectsGarbagePayload(t *testing.T) {
	findings := recomputeAndAudit(t, auditCell, []byte("not json at all"))
	if len(findings) != 1 || !strings.Contains(findings[0].Detail, "not valid stats JSON") {
		t.Fatalf("findings = %+v", findings)
	}
}

// TestAuditDetectsNonCanonicalEncoding: same values, different bytes
// — a compact re-marshal of the correct snapshot. Values match, so
// the metric diff is empty, but the byte compare still flags it: the
// cache contract is the canonical serialization, nothing else.
func TestAuditDetectsNonCanonicalEncoding(t *testing.T) {
	payload := auditFixture(t, auditCell)
	var snap metrics.Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	findings := recomputeAndAudit(t, auditCell, compact)
	if len(findings) != 1 || !strings.Contains(findings[0].Detail, "non-canonical or corrupted encoding") {
		t.Fatalf("findings = %+v", findings)
	}
}

// TestAuditBadCell: an unrecomputable cell, or a recompute that is
// not stats JSON, is an error, not a finding — the auditor has no
// verdict, and the caller counts it separately.
func TestAuditBadCell(t *testing.T) {
	cases := []rcache.CellSpec{
		{Config: "z15", Workload: "no-such-workload", Seed: 1, Instructions: 1000},
		{Config: "no-such-config", Workload: "loops", Seed: 1, Instructions: 1000},
		{Config: "z15", Workload: "loops", Seed: 1, Instructions: 0},
	}
	for _, cell := range cases {
		if _, err := Recompute(context.Background(), cell); err == nil {
			t.Errorf("cell %+v: expected an error", cell)
		}
	}
	if _, err := Audit(auditCell, []byte("not json"), []byte("{}")); err == nil {
		t.Error("a non-JSON recompute must be an error")
	}
}
