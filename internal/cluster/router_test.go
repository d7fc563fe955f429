package cluster

import (
	"testing"

	"zbp/internal/rcache"
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

func TestRendezvousStability(t *testing.T) {
	bs := testBackends(t, "http://a:1", "http://b:1", "http://c:1", "http://d:1")
	key := rcache.NewKey(rcache.CellSpec{Workload: "loops", Seed: 3, Instructions: 1000}).Hash64()

	first := rendezvousOrder(key, bs)
	second := rendezvousOrder(key, bs)
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
	reordered := rendezvousOrder(key, without)
	for i := range reordered {
		if reordered[i] != first[i+1] {
			t.Errorf("survivor order changed at %d: %s != %s", i, reordered[i].name, first[i+1].name)
		}
	}
}

func TestRendezvousSpread(t *testing.T) {
	bs := testBackends(t, "http://a:1", "http://b:1", "http://c:1", "http://d:1")
	counts := map[string]int{}
	for seed := uint64(0); seed < 200; seed++ {
		key := rcache.NewKey(rcache.CellSpec{Workload: "loops", Seed: seed, Instructions: 1000}).Hash64()
		counts[rendezvousOrder(key, bs)[0].name]++
	}
	for _, b := range bs {
		if counts[b.name] < 20 {
			t.Errorf("backend %s got %d/200 primaries; hashing is badly skewed: %v", b.name, counts[b.name], counts)
		}
	}
}

func TestNewRouterUnknown(t *testing.T) {
	c, err := New(Config{Backends: []string{"http://a:1"}, Router: "zigzag"})
	if err == nil {
		c.Close()
		t.Error("unknown router name accepted")
	}
}
