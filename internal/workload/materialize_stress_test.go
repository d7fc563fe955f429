package workload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMaterializerSingleflight: any number of concurrent Gets for the
// same key run the generation exactly once and all observe the same
// buffer. The hook counts actual materializations, not cache hits.
func TestMaterializerSingleflight(t *testing.T) {
	var made atomic.Int64
	materializeHook = func(string, uint64, int) { made.Add(1) }
	defer func() { materializeHook = nil }()

	mz := NewMaterializer()
	const callers = 16
	ptrs := make([]uintptr, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := mz.Get("lspr", 42, 300_000)
			if err != nil {
				t.Error(err)
				return
			}
			ptrs[i] = uintptr(p.SizeBytes()) // same buffer => same size; pointer identity below
		}(i)
	}
	wg.Wait()
	if n := made.Load(); n != 1 {
		t.Fatalf("%d materializations for one key, want exactly 1", n)
	}
	if mz.Count() != 1 {
		t.Fatalf("Count() = %d, want 1", mz.Count())
	}
	// A second wave after completion must still not re-materialize.
	a, err := mz.Get("lspr", 42, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := mz.Get("lspr", 42, 300_000)
	if a != b {
		t.Error("repeat Gets returned different buffers")
	}
	if n := made.Load(); n != 1 {
		t.Fatalf("%d materializations after repeat Gets, want 1", n)
	}
}

// TestMaterializerErrorNotCached: a failed materialization (unknown
// workload) reports its error to every caller and is not counted as a
// cached trace.
func TestMaterializerErrorPath(t *testing.T) {
	mz := NewMaterializer()
	if _, err := mz.Get("no-such-workload", 1, 1000); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := mz.Get("no-such-workload", 1, 1000); err == nil {
		t.Fatal("unknown workload accepted on second call")
	}
	if mz.Count() != 0 {
		t.Errorf("Count() = %d after failed materialization, want 0", mz.Count())
	}
	if mz.FootprintBytes() != 0 {
		t.Errorf("FootprintBytes() = %d after failed materialization, want 0", mz.FootprintBytes())
	}
}

// TestMaterializerDistinctKeyNotBlocked proves, without timing, that
// Get does not hold the cache lock across generation: while key A's
// materialization is stalled inside the generator hook, a Get for key
// B must still complete. Under the old cache-wide lock this deadlocks
// (B waits on mu held across A's generation) and the test times out.
func TestMaterializerDistinctKeyNotBlocked(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	materializeHook = func(name string, seed uint64, n int) {
		if seed == 99 {
			close(entered)
			<-release
		}
	}
	defer func() { materializeHook = nil }()

	mz := NewMaterializer()
	slowDone := make(chan error, 1)
	go func() {
		_, err := mz.Get("lspr", 99, 100_000)
		slowDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("slow materialization never started")
	}

	// Key A is mid-materialization; key B must not be stuck behind it.
	fastDone := make(chan error, 1)
	go func() {
		_, err := mz.Get("micro", 1, 100_000)
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("distinct-key Get serialized behind an in-flight materialization")
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	if mz.Count() != 2 {
		t.Errorf("Count() = %d, want 2", mz.Count())
	}
}
