package cluster

import (
	"sync/atomic"
	"testing"

	"zbp/internal/rcache"
	"zbp/internal/server"
)

func testBackends(t *testing.T, urls ...string) []*backend {
	t.Helper()
	out := make([]*backend, len(urls))
	for i, u := range urls {
		b, err := newBackend(u, 4)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestRouteKeyMatchesCacheKey pins the no-drift invariant: the router
// hashes exactly the bytes the result cache addresses by, including
// default canonicalization. If RouteKey ever diverges from
// rcache.NewKey, rendezvous routing silently loses cache affinity —
// this test makes that loud.
func TestRouteKeyMatchesCacheKey(t *testing.T) {
	specs := []rcache.CellSpec{
		{Workload: "loops", Seed: 42, Instructions: 1_000_000},
		{Config: "z14", Workload: "micro", Seed: 7, Instructions: 50_000},
		{Config: "z15", Workload: "lspr", Workload2: "micro", Seed: 1, Instructions: 250_000},
	}
	for _, spec := range specs {
		rk, ck := RouteKey(spec), rcache.NewKey(spec)
		if rk.String() != ck.String() || rk.Hash64() != ck.Hash64() {
			t.Errorf("spec %+v: route key %q (%x) != cache key %q (%x)",
				spec, rk.String(), rk.Hash64(), ck.String(), ck.Hash64())
		}
	}
	// Default canonicalization is shared too: an empty config routes
	// exactly like the explicit default, because the cache stores them
	// under one address.
	imp := RouteKey(rcache.CellSpec{Workload: "loops", Seed: 42, Instructions: 1000})
	exp := RouteKey(rcache.CellSpec{Config: "z15", Workload: "loops", Seed: 42, Instructions: 1000})
	if imp.Hash64() != exp.Hash64() {
		t.Error("default-filled and explicit z15 specs route differently")
	}
}

func TestRendezvousStability(t *testing.T) {
	bs := testBackends(t, "http://a:1", "http://b:1", "http://c:1", "http://d:1")
	r := rendezvousRouter{}
	key := RouteKey(rcache.CellSpec{Workload: "loops", Seed: 3, Instructions: 1000}).Hash64()

	first := r.order(key, bs)
	second := r.order(key, bs)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("order not deterministic at %d", i)
		}
	}
	// Removing the winner must not reshuffle anyone else: the
	// survivors keep their relative order, so only the dead backend's
	// cells migrate.
	without := make([]*backend, 0, 3)
	for _, b := range bs {
		if b != first[0] {
			without = append(without, b)
		}
	}
	reordered := r.order(key, without)
	for i := range reordered {
		if reordered[i] != first[i+1] {
			t.Errorf("survivor order changed at %d: %s != %s", i, reordered[i].name, first[i+1].name)
		}
	}
}

func TestRendezvousSpread(t *testing.T) {
	bs := testBackends(t, "http://a:1", "http://b:1", "http://c:1", "http://d:1")
	r := rendezvousRouter{}
	counts := map[string]int{}
	for seed := uint64(0); seed < 200; seed++ {
		key := RouteKey(rcache.CellSpec{Workload: "loops", Seed: seed, Instructions: 1000}).Hash64()
		counts[r.order(key, bs)[0].name]++
	}
	for _, b := range bs {
		if counts[b.name] < 20 {
			t.Errorf("backend %s got %d/200 primaries; hashing is badly skewed: %v", b.name, counts[b.name], counts)
		}
	}
}

func TestRoundRobinRotates(t *testing.T) {
	bs := testBackends(t, "http://a:1", "http://b:1", "http://c:1")
	var rr atomic.Uint64
	r := roundRobinRouter{rr: &rr}
	seen := map[string]bool{}
	for range 3 {
		seen[r.order(0, bs)[0].name] = true
	}
	if len(seen) != 3 {
		t.Errorf("3 consecutive orders used %d distinct primaries, want 3", len(seen))
	}
}

func TestLeastLoadedPrefersIdle(t *testing.T) {
	bs := testBackends(t, "http://busy:1", "http://idle:1")
	bs[0].load.Store(&server.Health{Workers: 1, QueueDepth: 10, Inflight: 1, RunSecondsEWMA: 1})
	bs[1].load.Store(&server.Health{Workers: 4, QueueDepth: 0, Inflight: 0, RunSecondsEWMA: 0.01})
	var rr atomic.Uint64
	r := leastLoadedRouter{rr: &rr}
	for i := range 4 {
		if got := r.order(0, bs)[0].name; got != "idle:1" {
			t.Fatalf("round %d routed to %s, want the idle backend", i, got)
		}
	}
}

// TestDrainEstimateCountsDispatchedOnce pins the double-counting fix:
// a cell this coordinator dispatched shows up both in the local
// inflight tally and — once a probe lands — in the backend's own
// queue/inflight numbers. The estimate must take the larger view, not
// the sum, or a busy-but-healthy box is penalized twice per cell and
// least-loaded routing skews away from it.
func TestDrainEstimateCountsDispatchedOnce(t *testing.T) {
	bs := testBackends(t, "http://a:1", "http://b:1")
	// a: 2 cells dispatched by us, and the probe already sees both of
	// them running over there (same 2 cells, seen from both sides).
	bs[0].inflight.Store(2)
	bs[0].load.Store(&server.Health{Workers: 1, Inflight: 2, RunSecondsEWMA: 1})
	// b: nothing from us, but 3 cells of other clients' work.
	bs[1].load.Store(&server.Health{Workers: 1, Inflight: 3, RunSecondsEWMA: 1})

	a, b := drainEstimate(bs[0]), drainEstimate(bs[1])
	// Summing would score a at 4 (2 local + 2 remote) and misroute new
	// cells to the genuinely busier b.
	if a >= b {
		t.Errorf("drainEstimate double-counts dispatched cells: a=%v (2 cells) >= b=%v (3 cells)", a, b)
	}
	// The local view still counts when the probe is stale: cells
	// dispatched since the last scrape keep the estimate honest.
	bs[0].inflight.Store(4) // 4 local now, probe still says 2
	if got := drainEstimate(bs[0]); got != 4 {
		t.Errorf("stale probe: drainEstimate=%v, want the larger local view 4", got)
	}
}

func TestNewRouterUnknown(t *testing.T) {
	var rr atomic.Uint64
	if _, err := newRouter("zigzag", &rr); err == nil {
		t.Error("unknown router name accepted")
	}
}
