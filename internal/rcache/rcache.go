// Package rcache is the content-addressed result cache behind the
// async job API. The simulator is deterministic down to byte-identical
// stats JSON (the property internal/equiv enforces), so every
// (config, workload, seed, budget) cell is infinitely cacheable: the
// cell spec *is* the content address of its result. A repeated sweep
// cell returns in microseconds instead of re-burning millions of
// simulated cycles, and at scale real sweep traffic is mostly repeats.
//
// Layering: an in-memory LRU (internal/lru, bounded by bytes) sits in
// front of an optional on-disk store (atomic write-then-rename,
// size-bounded eviction), with per-key singleflight so N concurrent
// requests for the same uncomputed cell run one simulation and share
// the bytes. workload.Materializer keeps trace buffers in the same
// LRU type, so both caches share these semantics.
//
// Integrity is end-to-end, not per-layer: the disk payload carries no
// checksum on purpose. A checksum only catches bit-rot, not a wrong
// compute or a poisoned write, and it would mask exactly the failures
// the cache auditor (equiv.Recompute and equiv.Audit, sampled over
// live hits) exists to catch. The header line guards key identity (hash
// collision, truncated file); the *values* are proven honest by
// recomputation.
package rcache

import (
	"context"
	"fmt"
	"sync/atomic"

	"zbp/internal/hashx"
	"zbp/internal/lru"
	"zbp/internal/metrics"
	"zbp/internal/workload"
)

// FormatVersion identifies the cache entry layout (the meaning of the
// stored bytes and the disk header). Bumping it invalidates every
// existing key, exactly like a stats schema bump: both versions are
// folded into the content address.
const FormatVersion = 1

// CellSpec identifies one deterministic simulation cell. It mirrors
// the fields the service and the equiv harness use to reconstruct a
// run exactly; two specs that canonicalize equal address the same
// result bytes.
//
// Convention (shared with the zbpd service and equiv.Recompute): when
// Workload2 is set, the second hardware thread runs it at Seed+1.
type CellSpec struct {
	// Config is a machine preset name; empty canonicalizes to "z15",
	// the service default, so a default-filled request and an explicit
	// one hash equal.
	Config string
	// Workload names the synthetic workload (required).
	Workload string
	// Workload2, when set, runs on the second hardware thread (SMT2).
	Workload2 string
	// Seed is the generator seed for thread 0.
	Seed uint64
	// Instructions is the per-thread budget.
	Instructions int
}

// Name renders the spec as "config/workload/s<seed>/n<budget>", with
// the SMT2 partner as "workload+workload2", for findings and logs.
func (s CellSpec) Name() string {
	if s.Workload2 != "" {
		return fmt.Sprintf("%s/%s+%s/s%d/n%d", s.Config, s.Workload, s.Workload2, s.Seed, s.Instructions)
	}
	return fmt.Sprintf("%s/%s/s%d/n%d", s.Config, s.Workload, s.Seed, s.Instructions)
}

// canonicalized fills defaults so equivalent specs render identically,
// and resolves workload names to their content identity: a file-backed
// workload (file:/spec: form) canonicalizes to its SHA-256 content
// digest, so the same name over edited bytes is a *different* key —
// without this, a mutable trace file would silently serve stale cached
// results (and stale cluster routing, which hashes this key).
// Generator names are their own identity and render unchanged.
//
// An unresolvable identity (unreadable file) falls back to the raw
// name: the compute for such a spec fails too, and failed computes are
// never cached, so nothing can be stored — or served — under the
// fallback key. Coordinators routing cells for files they don't hold
// locally degrade the same way, to stable name-based routing.
func (s CellSpec) canonicalized() CellSpec {
	if s.Config == "" {
		s.Config = "z15"
	}
	s.Workload = workloadIdentity(s.Workload)
	s.Workload2 = workloadIdentity(s.Workload2)
	return s
}

func workloadIdentity(name string) string {
	if !workload.PathBacked(name) {
		return name
	}
	id, err := workload.SpecID(name)
	if err != nil {
		return name
	}
	return id
}

// Key is the content address of one cell's result bytes: a canonical
// rendering of the spec (fixed field order, defaults filled, format
// and stats-schema versions folded in) plus its 64-bit hash. The
// canonical string, not the hash, is the identity — the hash only
// buckets map lookups and names disk files, and the disk header
// re-checks the canonical form so a collision degrades to a miss.
type Key struct {
	canonical string
	hash      uint64
}

// NewKey builds the content address of spec under the current cache
// format and stats schema versions.
func NewKey(spec CellSpec) Key {
	return keyAt(spec, FormatVersion, metrics.SchemaVersion)
}

// keyAt renders the canonical form under explicit versions; split out
// so tests can prove a version bump invalidates without editing
// package constants.
func keyAt(spec CellSpec, formatVersion, statsSchema int) Key {
	c := spec.canonicalized()
	canonical := fmt.Sprintf("zrc/%d|stats/%d|cfg=%s|wl=%s|wl2=%s|seed=%d|n=%d",
		formatVersion, statsSchema, c.Config, c.Workload, c.Workload2, c.Seed, c.Instructions)
	return Key{canonical: canonical, hash: hashx.Mix(hashx.String(canonical))}
}

// String returns the canonical spec rendering.
func (k Key) String() string { return k.canonical }

// Hash returns the 16-hex-digit content hash (the disk file stem).
func (k Key) Hash() string { return fmt.Sprintf("%016x", k.hash) }

// Hash64 returns the raw 64-bit content hash. The cluster
// coordinator's rendezvous routing mixes it against backend identities
// so identical cells always land on the backend whose result cache
// already holds them — routing and cache share this one key
// definition.
func (k Key) Hash64() uint64 { return k.hash }

// Config sizes a Cache. The zero value is a usable memory-only cache
// with production-lean defaults.
type Config struct {
	// MaxMemBytes bounds the in-memory LRU by payload bytes. Default:
	// 256 MiB. An entry larger than the bound is still admitted alone
	// (evicting everything else) so oversized results stay cacheable.
	MaxMemBytes int64
	// Dir, when set, enables the on-disk store under this directory
	// (created if missing). Entries survive process restarts.
	Dir string
	// MaxDiskBytes bounds the disk store; oldest files (by mtime) are
	// evicted after each store. Default: 1 GiB.
	MaxDiskBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxMemBytes <= 0 {
		c.MaxMemBytes = 256 << 20
	}
	if c.MaxDiskBytes <= 0 {
		c.MaxDiskBytes = 1 << 30
	}
	return c
}

// entryOverhead approximates per-entry bookkeeping (list element, map
// slot, key string) charged against MaxMemBytes so a flood of tiny
// entries cannot balloon past the bound.
const entryOverhead = 256

// Cache is the two-level content-addressed store. Safe for concurrent
// use; reads and writes never hold a lock across a compute or a disk
// access.
type Cache struct {
	cfg Config
	mem *lru.Cache[string, []byte] // keyed by the canonical spec string

	hits       atomic.Int64 // served without computing (memory, disk, or coalesced)
	misses     atomic.Int64 // a compute was started
	puts       atomic.Int64 // a computed result was installed
	coalesced  atomic.Int64 // hits that piggybacked on an in-flight compute
	diskHits   atomic.Int64 // hits satisfied from the disk layer
	diskErrors atomic.Int64 // unreadable/mismatched disk entries (treated as misses)
}

// New builds a cache. If cfg.Dir is set, the directory is created; an
// unusable directory is an error rather than a silent fallback to
// memory-only, so an operator never believes results persist when
// they do not.
func New(cfg Config) (*Cache, error) {
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg: cfg,
		mem: lru.New[string](cfg.MaxMemBytes, func(v []byte) int64 { return int64(len(v)) + entryOverhead }),
	}
	if err := c.diskInit(); err != nil {
		return nil, err
	}
	return c, nil
}

// Get returns the cached bytes for k, consulting memory then disk. A
// disk hit is promoted into the memory LRU. The returned slice is
// shared and must not be modified.
func (c *Cache) Get(k Key) ([]byte, bool) {
	if v, ok := c.mem.Get(k.canonical); ok {
		c.hits.Add(1)
		return v, true
	}
	if v, ok := c.diskLoad(k); ok {
		c.mem.Put(k.canonical, v)
		c.hits.Add(1)
		c.diskHits.Add(1)
		return v, true
	}
	return nil, false
}

// Put installs v under k in both layers. Callers hand over ownership
// of v.
func (c *Cache) Put(k Key, v []byte) {
	c.mem.Put(k.canonical, v)
	c.diskStore(k, v)
	c.puts.Add(1)
}

// GetOrCompute returns the bytes for k, running compute at most once
// across all concurrent callers of the same key (singleflight). hit
// reports whether the caller was served without a compute of its own
// — from memory, disk, or by coalescing onto another caller's
// in-flight compute. A failed compute is never cached: its error
// propagates to the computing caller, and coalesced waiters retry
// (typically becoming the next computer) so one canceled request
// cannot poison an identical healthy one.
func (c *Cache) GetOrCompute(ctx context.Context, k Key, compute func(ctx context.Context) ([]byte, error)) (v []byte, hit bool, err error) {
	fromDisk := false
	v, how, err := c.mem.GetOrCompute(ctx, k.canonical, func(ctx context.Context) ([]byte, error) {
		if v, ok := c.diskLoad(k); ok {
			fromDisk = true
			return v, nil
		}
		c.misses.Add(1)
		v, err := compute(ctx)
		if err == nil {
			c.diskStore(k, v)
			c.puts.Add(1)
		}
		return v, err
	})
	switch {
	case err != nil:
		return nil, false, err
	case how == lru.Coalesced:
		c.coalesced.Add(1)
	case fromDisk:
		c.diskHits.Add(1)
	case how == lru.Filled:
		return v, false, nil
	}
	c.hits.Add(1)
	return v, true, nil
}

// Len returns the number of resident in-memory entries.
func (c *Cache) Len() int { return c.mem.Len() }

// MemBytes returns the charged in-memory footprint.
func (c *Cache) MemBytes() int64 { return c.mem.Bytes() }

// Counter accessors, exported for service gauges and tests.

func (c *Cache) Hits() int64       { return c.hits.Load() }
func (c *Cache) Misses() int64     { return c.misses.Load() }
func (c *Cache) Puts() int64       { return c.puts.Load() }
func (c *Cache) Evictions() int64  { return c.mem.Evictions() }
func (c *Cache) Coalesced() int64  { return c.coalesced.Load() }
func (c *Cache) DiskHits() int64   { return c.diskHits.Load() }
func (c *Cache) DiskErrors() int64 { return c.diskErrors.Load() }
