package server

import (
	"context"
	"testing"

	"zbp/internal/metrics"
	"zbp/internal/rcache"
)

// recomputeStub recomputes every cell to fixed bytes, so a test
// controls exactly what the audit lane compares a cached payload with.
type recomputeStub struct {
	stubExec
	fresh []byte
}

func (s recomputeStub) Recompute(context.Context, rcache.CellSpec) ([]byte, error) {
	return s.fresh, nil
}

// TestAuditLaneVerdict drives one sampled hit through the audit lane
// per case: the verdict is the same equiv.Audit on either role, a
// nudged counter is one failure, and a recompute that is not stats
// JSON is an audit error, not a failure.
func TestAuditLaneVerdict(t *testing.T) {
	snap := metrics.Snapshot{SchemaVersion: metrics.SchemaVersion, Counters: map[string]int64{"sim.cycles": 1000}}
	honest, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	snap.Counters["sim.cycles"]++
	nudged, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name             string
		cached, fresh    []byte
		failures, errors int64
	}{
		{"clean", honest, honest, 0, 0},
		{"nudged counter", nudged, honest, 1, 0},
		{"non-JSON recompute", honest, []byte("not json"), 0, 1},
	}
	cell := rcache.CellSpec{Config: "z15", Workload: "loops", Seed: 1, Instructions: 1000}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc, err := rcache.New(rcache.Config{})
			if err != nil {
				t.Fatal(err)
			}
			c := &ResultCache{Cache: rc, next: recomputeStub{fresh: tc.fresh}, every: 1, lane: make(chan auditTask, 1)}
			c.Put(rcache.NewKey(cell), tc.cached)
			out, err := c.Exec(context.Background(), cell, false)
			if err != nil || !out.Cached {
				t.Fatalf("planted entry not served as a hit: %+v, %v", out, err)
			}
			select {
			case task := <-c.lane:
				c.runAudit(context.Background(), task)
			default:
				t.Fatal("the hit was not sampled into the audit lane")
			}
			if got := c.Audits.Load(); got != 1 {
				t.Errorf("audits = %d, want 1", got)
			}
			if got := c.AuditFailures.Load(); got != tc.failures {
				t.Errorf("audit failures = %d, want %d", got, tc.failures)
			}
			if got := c.AuditErrors.Load(); got != tc.errors {
				t.Errorf("audit errors = %d, want %d", got, tc.errors)
			}
		})
	}
}
