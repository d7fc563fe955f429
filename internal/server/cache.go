package server

import (
	"context"
	"log"
	"sync/atomic"

	"zbp/internal/rcache"
)

// ResultCache is the content-addressed result cache and its audit lane,
// wrapped around an executor. The simulator is deterministic, so a cell
// is cached under rcache.NewKey and a repeat is served without touching
// the executor — on a single box without a queue slot, on a fleet
// without a backend dispatch. Per-key singleflight means concurrent
// requests for one uncomputed cell compute it once.
//
// The cache's disk format carries no checksum, by design: the audit
// lane is the integrity check instead. Every AuditEvery'th hit is
// handed to one background goroutine that has the executor recompute
// the cell (Executor.Audit) and compare it with what the cache served.
// A divergence — a poisoned entry, a stale-schema payload, bit rot —
// lands in the cache_audit_failures_total gauge and the log.
type ResultCache struct {
	*rcache.Cache
	next  Executor
	every int64
	lane  chan auditTask // nil when auditing is off

	hits atomic.Int64
	// Audit tallies, exported on /metrics.
	Audits, AuditFailures, AuditErrors, AuditDropped atomic.Int64
}

// auditTask carries one sampled cache hit to the audit loop.
type auditTask struct {
	key   rcache.Key
	cell  rcache.CellSpec
	stats []byte
}

// Exec serves cell from the cache, or from the wrapped executor on a
// miss. noCache skips the cache on both read and write.
func (c *ResultCache) Exec(ctx context.Context, cell rcache.CellSpec, noCache bool) (Outcome, error) {
	if noCache {
		return c.next.Exec(ctx, cell, true)
	}
	key := rcache.NewKey(cell)
	var out Outcome
	v, hit, err := c.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		var err error
		out, err = c.next.Exec(ctx, cell, false)
		return out.Stats, err
	})
	if err != nil {
		return Outcome{}, err
	}
	if !hit {
		return out, nil
	}
	// Served from memory, disk, or a concurrent identical compute:
	// nothing ran for this request, so there is no backend to name.
	c.maybeAudit(key, cell, v)
	return Outcome{Stats: v, Cached: true}, nil
}

// maybeAudit samples cache hits into the audit lane. The send is
// non-blocking: auditing is a watchdog, not a gate, so when the auditor
// is saturated the sample is dropped (and counted) rather than stalling
// the serving path.
func (c *ResultCache) maybeAudit(key rcache.Key, cell rcache.CellSpec, stats []byte) {
	if c.lane == nil || c.hits.Add(1)%c.every != 0 {
		return
	}
	select {
	case c.lane <- auditTask{key: key, cell: cell, stats: stats}:
	default:
		c.AuditDropped.Add(1)
	}
}

// auditLoop drains sampled hits until ctx dies. One goroutine,
// deliberately: audits are full recomputations, and a single lane
// bounds how much capacity verification can steal from real traffic.
func (c *ResultCache) auditLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-c.lane:
			c.runAudit(ctx, t)
		}
	}
}

// runAudit recomputes one sampled hit and records the verdict.
func (c *ResultCache) runAudit(ctx context.Context, t auditTask) {
	findings, err := c.next.Audit(ctx, t.cell, t.stats)
	if err != nil && ctx.Err() != nil {
		return // shutdown interrupted the recompute; not an audit
	}
	c.Audits.Add(1)
	switch {
	case err != nil:
		c.AuditErrors.Add(1)
		log.Printf("cache audit error: cell %+v key %s: %v", t.cell, t.key.Hash(), err)
	case len(findings) > 0:
		c.AuditFailures.Add(int64(len(findings)))
		for _, f := range findings {
			log.Printf("CACHE AUDIT FAILURE: key %s: %s", t.key.Hash(), f)
		}
	}
}
