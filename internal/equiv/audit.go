package equiv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"zbp/internal/core"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/verif"
	"zbp/internal/workload"
)

// AuditCheck names the findings the cache auditor emits, alongside
// the pairwise checks in CheckNames.
const AuditCheck = "cache-audit"

// RunCell runs one cell's simulation, cancellable through ctx. Its
// traces come from mz, or are packed afresh when mz is nil. By the
// rcache.CellSpec convention, Workload2 (when set) runs on the second
// hardware thread at Seed+1.
func RunCell(ctx context.Context, mz *workload.Materializer, cell rcache.CellSpec) (sim.Result, error) {
	gen, err := core.ByName(cell.Config)
	if err != nil {
		return sim.Result{}, err
	}
	p, err := mz.Get(cell.Workload, cell.Seed, cell.Instructions)
	if err != nil {
		return sim.Result{}, err
	}
	cur := p.Cursor()
	srcs := []trace.Source{&cur}
	if cell.Workload2 != "" {
		p2, err := mz.Get(cell.Workload2, cell.Seed+1, cell.Instructions)
		if err != nil {
			return sim.Result{}, err
		}
		cur2 := p2.Cursor()
		srcs = append(srcs, &cur2)
	}
	return sim.New(sim.ForGeneration(gen), srcs).RunCtx(ctx, 0)
}

// Recompute derives cell's canonical stats JSON from scratch — fresh
// generator, fresh packed buffer, fresh predictor state — so it shares
// no trace cache with the serving path whose result it checks.
func Recompute(ctx context.Context, cell rcache.CellSpec) ([]byte, error) {
	res, err := RunCell(ctx, nil, cell)
	if err != nil {
		return nil, err
	}
	return res.StatsJSON()
}

// Audit is the cache-poisoning verdict: it byte-compares a fresh
// recomputation of cell with the cached payload. The simulator's
// determinism (enforced by this package's exact pairs) is what makes
// this sound: any byte of divergence means the cached value is not
// what this simulator produces for this spec, i.e. a poisoned,
// stale-schema, or corrupted entry. Divergences come back as findings
// (check "cache-audit") naming the first diverging metric; a non-nil
// error means fresh is not stats JSON, so there is no verdict.
func Audit(cell rcache.CellSpec, fresh, cached []byte) ([]verif.Finding, error) {
	if bytes.Equal(fresh, cached) {
		return nil, nil
	}
	var want metrics.Snapshot
	if err := json.Unmarshal(fresh, &want); err != nil {
		return nil, fmt.Errorf("equiv: recomputed %s is not stats JSON: %w", cell.Name(), err)
	}

	// Attribute the divergence: decode the cached payload as a
	// snapshot and diff metric by metric; an undecodable payload is
	// corruption in its own right.
	f := verif.Finding{Check: AuditCheck, Cell: cell.Name(), Cycle: -1}
	var got metrics.Snapshot
	if err := json.Unmarshal(cached, &got); err != nil {
		f.Detail = fmt.Sprintf("cached stats payload is not valid stats JSON: %v", err)
		return []verif.Finding{f}, nil
	}
	diffs := metrics.DiffSnapshots(got, want)
	if len(diffs) == 0 {
		f.Detail = "cached payload bytes differ from the canonical serialization (non-canonical or corrupted encoding)"
		return []verif.Finding{f}, nil
	}
	metric, first := firstDiff(diffs)
	f.Metric = metric
	f.Detail = fmt.Sprintf("cached result diverges from fresh recomputation: %s (%d metrics differ)",
		first, len(diffs))
	return []verif.Finding{f}, nil
}
