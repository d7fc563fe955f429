package workload

import (
	"testing"

	"zbp/internal/trace"
)

// TestMakePackedNeedsBudget: a generator never ends, so packing one
// without a positive budget must fail instead of draining forever.
func TestMakePackedNeedsBudget(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := MakePacked("loops", 1, n); err == nil {
			t.Errorf("MakePacked(loops, 1, %d) returned no error", n)
		}
	}
}

// TestMaterializerBounded walks three keys, twice, through a cache
// with room for two. Every Get must leave the resident footprint under
// the bound, and each key, evicted before its next use, must
// materialize again into a buffer equal to its first one.
func TestMaterializerBounded(t *testing.T) {
	const n = 5_000
	probe, err := MakePacked("loops", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int64) { matCacheBytes = old }(matCacheBytes)
	matCacheBytes = int64(probe.SizeBytes() * 5 / 2) // two traces fit, three do not
	made := map[uint64]int{}
	materializeHook = func(_ string, seed uint64, _ int) { made[seed]++ }
	defer func() { materializeHook = nil }()

	mz := NewMaterializer()
	first := map[uint64]*trace.Packed{}
	for round := 0; round < 2; round++ {
		for seed := uint64(1); seed <= 3; seed++ {
			p, err := mz.Get("loops", seed, n)
			if err != nil {
				t.Fatal(err)
			}
			if fp := mz.FootprintBytes(); int64(fp) > matCacheBytes {
				t.Fatalf("round %d seed %d: footprint %d B over the %d B bound", round, seed, fp, matCacheBytes)
			}
			if c := mz.Count(); c > 2 {
				t.Fatalf("round %d seed %d: %d traces resident, want at most 2", round, seed, c)
			}
			prev, ok := first[seed]
			if !ok {
				first[seed] = p
				continue
			}
			if p == prev || p.Len() != prev.Len() {
				t.Fatalf("seed %d: re-materialized buffer is %p (%d records), first was %p (%d records)",
					seed, p, p.Len(), prev, prev.Len())
			}
			for i := 0; i < p.Len(); i++ {
				if p.At(i) != prev.At(i) {
					t.Fatalf("seed %d: record %d differs after re-materializing: %+v vs %+v", seed, i, p.At(i), prev.At(i))
				}
			}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if made[seed] != 2 {
			t.Errorf("seed %d materialized %d times, want 2 (evicted, then materialized again)", seed, made[seed])
		}
	}
	if mz.Evictions() == 0 {
		t.Error("no evictions counted")
	}
}
