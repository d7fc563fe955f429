// Package lru is the one in-memory cache layer of the repository: a
// least-recently-used map bounded by a byte budget, with per-key
// singleflight so concurrent callers of one missing key run a single
// fill and share its value. The result cache (internal/rcache) keeps
// its memory layer in it, and workload.Materializer keeps packed
// traces in it, so both share one set of semantics:
//
//   - an entry larger than the whole budget is still admitted, alone;
//   - a failed fill is never cached: its error goes to the caller that
//     ran it, and callers that were waiting on it retry;
//   - distinct keys fill in parallel; the lock is never held across a
//     fill.
//
// Eviction only drops the cache's reference. A caller still holding a
// value keeps it alive, so values must be immutable once filled.
package lru

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// How says where GetOrCompute's value came from.
type How uint8

const (
	// Resident: the key was already cached.
	Resident How = iota
	// Coalesced: another caller's in-flight fill produced the value.
	Coalesced
	// Filled: this caller ran the fill.
	Filled
)

// Cache is a byte-bounded LRU with per-key singleflight. Safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	max  int64
	size func(V) int64

	mu       sync.Mutex
	entries  map[K]*list.Element // key -> element holding *entry
	order    *list.List          // front = most recently used
	bytes    int64
	inflight map[K]*flight[V]

	evictions atomic.Int64
}

type entry[K comparable, V any] struct {
	key  K
	v    V
	size int64
}

// flight is a per-key singleflight slot: the filler publishes v/err,
// then closes done.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// errFillPanicked is the error a flight carries when its fill panicked,
// so waiters retry instead of blocking forever.
var errFillPanicked = errors.New("lru: fill panicked")

// New returns an empty cache holding at most maxBytes, where size
// charges each value its share of the budget.
func New[K comparable, V any](maxBytes int64, size func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{
		max:      maxBytes,
		size:     size,
		entries:  make(map[K]*list.Element),
		order:    list.New(),
		inflight: make(map[K]*flight[V]),
	}
}

// Get returns the value cached under k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).v, true
	}
	var zero V
	return zero, false
}

// Put installs v under k. A key already resident keeps its value and
// is only marked most recently used.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.install(k, v)
}

// install inserts k and evicts from the cold end until the budget
// holds again, always keeping the newcomer. c.mu must be held.
func (c *Cache[K, V]) install(k K, v V) {
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		return
	}
	e := &entry[K, V]{key: k, v: v, size: c.size(v)}
	c.entries[k] = c.order.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.max && c.order.Len() > 1 {
		cold := c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.entries, cold.key)
		c.bytes -= cold.size
		c.evictions.Add(1)
	}
}

// GetOrCompute returns the value for k, running fill at most once
// across all concurrent callers of k. A successful fill is installed
// before any waiter wakes. A failed fill is not cached: its error goes
// to this caller, and waiters go around again (typically becoming the
// next filler), so one canceled caller cannot fail an identical
// healthy one. A waiter whose ctx ends stops waiting with ctx.Err().
func (c *Cache[K, V]) GetOrCompute(ctx context.Context, k K, fill func(context.Context) (V, error)) (V, How, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[k]; ok {
			c.order.MoveToFront(el)
			v := el.Value.(*entry[K, V]).v
			c.mu.Unlock()
			return v, Resident, nil
		}
		f, ok := c.inflight[k]
		if !ok {
			f = &flight[V]{done: make(chan struct{}), err: errFillPanicked}
			c.inflight[k] = f
			c.mu.Unlock()
			c.run(ctx, k, f, fill)
			return f.v, Filled, f.err
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			var zero V
			return zero, Coalesced, ctx.Err()
		}
		if f.err == nil {
			return f.v, Coalesced, nil
		}
	}
}

// run executes fill for a freshly claimed flight and lands it, even if
// fill panics.
func (c *Cache[K, V]) run(ctx context.Context, k K, f *flight[V], fill func(context.Context) (V, error)) {
	defer func() {
		c.mu.Lock()
		if f.err == nil {
			c.install(k, f.v)
		}
		delete(c.inflight, k)
		c.mu.Unlock()
		close(f.done)
	}()
	f.v, f.err = fill(ctx)
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the charged footprint of the resident entries.
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns how many entries the budget has pushed out.
func (c *Cache[K, V]) Evictions() int64 { return c.evictions.Load() }
