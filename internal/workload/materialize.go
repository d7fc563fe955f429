package workload

import (
	"context"
	"fmt"

	"zbp/internal/lru"
	"zbp/internal/trace"
)

// MakePacked generates n instructions of the named workload once and
// packs them into an immutable trace.Packed for repeated replay. This
// is the materialize-once entry point sweep campaigns use: generation
// and validation are paid a single time, then every design point
// replays a zero-decode cursor over the shared buffer. n must be
// positive: a generator never ends, so packing it without a budget
// would never return.
func MakePacked(name string, seed uint64, n int) (*trace.Packed, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: packing %s: budget %d is not positive", name, n)
	}
	src, err := Make(name, seed)
	if err != nil {
		return nil, err
	}
	p, err := trace.Pack(src, n)
	if err != nil {
		return nil, fmt.Errorf("workload: packing %s: %w", name, err)
	}
	return p, nil
}

// matCacheBytes bounds the packed traces one Materializer keeps
// resident. A full zexp suite at default scale keeps 178 MB. A
// variable, not a constant, so tests can lower it.
var matCacheBytes int64 = 256 << 20

// Materializer caches packed workload traces by (name, seed, budget),
// so a whole experiment campaign — many experiments sweeping many
// configurations over the same workloads — generates each workload
// once while it stays resident. It is an internal/lru cache bounded by
// matCacheBytes, with per-key singleflight: concurrent callers of one
// key share one materialization, distinct keys materialize in
// parallel, and a failed materialization is not cached. An evicted key
// re-materializes byte-identically on its next Get; a replay already
// holding the evicted buffer keeps it alive until it ends.
type Materializer struct {
	c *lru.Cache[matKey, *trace.Packed]
}

type matKey struct {
	name string
	seed uint64
	n    int
}

// NewMaterializer returns an empty cache.
func NewMaterializer() *Materializer {
	return &Materializer{c: lru.New[matKey](matCacheBytes, func(p *trace.Packed) int64 { return int64(p.SizeBytes()) })}
}

// Get returns the packed trace for (name, seed, n), materializing it
// on first use. Concurrent callers of the same key block until the
// single materialization finishes rather than duplicating the work;
// callers of different keys do not block each other. A nil
// Materializer caches nothing and packs afresh on every call.
//
// The cache key uses the workload's content identity (SpecID), not its
// name: a file-backed workload whose bytes changed on disk is a
// different key and re-materializes instead of replaying the stale
// buffer.
func (mz *Materializer) Get(name string, seed uint64, n int) (*trace.Packed, error) {
	if mz == nil {
		return MakePacked(name, seed, n)
	}
	id, err := SpecID(name)
	if err != nil {
		return nil, err
	}
	key := matKey{id, seed, n}
	p, _, err := mz.c.GetOrCompute(context.TODO(), key, func(context.Context) (*trace.Packed, error) {
		if hook := materializeHook; hook != nil {
			hook(key.name, key.seed, key.n)
		}
		return MakePacked(name, seed, n)
	})
	return p, err
}

// materializeHook, when non-nil, is invoked once per actual
// materialization (not per Get). Tests use it to assert singleflight
// behaviour; it must be set before any Get runs.
var materializeHook func(name string, seed uint64, n int)

// Count returns the number of resident traces. In-flight
// materializations are not counted.
func (mz *Materializer) Count() int { return mz.c.Len() }

// FootprintBytes returns the heap footprint of the resident buffers,
// for logging and capacity planning. It never exceeds the cache bound
// unless a single trace is larger than the bound on its own.
func (mz *Materializer) FootprintBytes() int { return int(mz.c.Bytes()) }

// Evictions returns how many traces the bound has pushed out.
func (mz *Materializer) Evictions() int64 { return mz.c.Evictions() }
