package rcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zbp/internal/metrics"
)

// TestCellSpecName pins the spec rendering used in findings and logs.
func TestCellSpecName(t *testing.T) {
	st := CellSpec{Config: "z15", Workload: "loops", Seed: 42, Instructions: 20_000}
	if got := st.Name(); got != "z15/loops/s42/n20000" {
		t.Errorf("name %q", got)
	}
	smt := CellSpec{Config: "z14", Workload: "lspr", Workload2: "micro", Seed: 7, Instructions: 500}
	if got := smt.Name(); got != "z14/lspr+micro/s7/n500" {
		t.Errorf("SMT2 name %q", got)
	}
}

// TestKeyCanonicalization: equivalent specs address the same bytes.
// A default-filled request ("" config) and the explicit service
// default must hash equal, because the HTTP layer accepts both forms
// for the same simulation.
func TestKeyCanonicalization(t *testing.T) {
	base := CellSpec{Config: "z15", Workload: "loops", Seed: 42, Instructions: 10_000}
	filled := NewKey(base)
	defaulted := NewKey(CellSpec{Workload: "loops", Seed: 42, Instructions: 10_000})
	if filled != defaulted {
		t.Errorf("default-filled spec hashes differently:\n explicit %s\n defaulted %s",
			filled.String(), defaulted.String())
	}

	// Every field must be load-bearing: flipping any one of them must
	// move the address.
	variants := map[string]CellSpec{
		"config":       {Config: "z14", Workload: "loops", Seed: 42, Instructions: 10_000},
		"workload":     {Config: "z15", Workload: "lspr", Seed: 42, Instructions: 10_000},
		"workload2":    {Config: "z15", Workload: "loops", Workload2: "micro", Seed: 42, Instructions: 10_000},
		"seed":         {Config: "z15", Workload: "loops", Seed: 43, Instructions: 10_000},
		"instructions": {Config: "z15", Workload: "loops", Seed: 42, Instructions: 10_001},
	}
	for field, spec := range variants {
		if NewKey(spec) == filled {
			t.Errorf("changing %s did not change the key", field)
		}
	}

	// The canonical form is position-keyed (wl= vs wl2=), so a value
	// sliding between fields cannot collide.
	a := NewKey(CellSpec{Workload: "loops", Workload2: "micro", Seed: 1, Instructions: 5})
	b := NewKey(CellSpec{Workload: "micro", Workload2: "loops", Seed: 1, Instructions: 5})
	if a == b {
		t.Error("swapping workload/workload2 did not change the key")
	}
}

// TestKeyVersionBumpInvalidates: folding the format and stats-schema
// versions into the address means a bump orphans every old entry —
// no stale-schema payload can ever be served as current.
func TestKeyVersionBumpInvalidates(t *testing.T) {
	spec := CellSpec{Workload: "loops", Seed: 42, Instructions: 10_000}
	cur := keyAt(spec, FormatVersion, metrics.SchemaVersion)
	if cur != NewKey(spec) {
		t.Fatal("keyAt with current versions disagrees with NewKey")
	}
	if keyAt(spec, FormatVersion+1, metrics.SchemaVersion) == cur {
		t.Error("format version bump did not change the key")
	}
	if keyAt(spec, FormatVersion, metrics.SchemaVersion+1) == cur {
		t.Error("stats schema bump did not change the key")
	}
}

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func specN(i int) CellSpec {
	return CellSpec{Workload: "loops", Seed: uint64(i), Instructions: 1000}
}

// TestMemLRUEvictionOrder: the coldest entry leaves first, and a Get
// refreshes recency.
func TestMemLRUEvictionOrder(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 100)
	// Budget for exactly 3 entries of (100 + overhead) bytes.
	c := mustCache(t, Config{MaxMemBytes: 3 * (100 + entryOverhead)})
	for i := 0; i < 3; i++ {
		c.Put(NewKey(specN(i)), payload)
	}
	if c.Len() != 3 {
		t.Fatalf("resident entries = %d, want 3", c.Len())
	}
	// Touch entry 0 so entry 1 is now coldest, then overflow.
	if _, ok := c.Get(NewKey(specN(0))); !ok {
		t.Fatal("entry 0 missing before overflow")
	}
	c.Put(NewKey(specN(3)), payload)
	if _, ok := c.Get(NewKey(specN(1))); ok {
		t.Error("coldest entry (1) survived eviction")
	}
	for _, want := range []int{0, 2, 3} {
		if _, ok := c.Get(NewKey(specN(want))); !ok {
			t.Errorf("entry %d evicted, want resident", want)
		}
	}
	if got := c.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestMemOversizedEntryAdmitted: an entry larger than the whole bound
// still caches (alone) instead of thrashing.
func TestMemOversizedEntryAdmitted(t *testing.T) {
	c := mustCache(t, Config{MaxMemBytes: 64})
	k := NewKey(specN(0))
	big := bytes.Repeat([]byte("y"), 4096)
	c.Put(k, big)
	v, ok := c.Get(k)
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("oversized entry not served back")
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

// TestDiskRoundTripSurvivesRestart: a second cache over the same
// directory — a process restart — serves the first one's entries.
func TestDiskRoundTripSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	k := NewKey(specN(7))
	payload := []byte(`{"schema_version":1}`)

	c1 := mustCache(t, Config{Dir: dir})
	c1.Put(k, payload)

	c2 := mustCache(t, Config{Dir: dir})
	v, ok := c2.Get(k)
	if !ok {
		t.Fatal("entry did not survive restart")
	}
	if !bytes.Equal(v, payload) {
		t.Fatalf("restart round-trip corrupted payload: %q", v)
	}
	if c2.DiskHits() != 1 || c2.Hits() != 1 {
		t.Errorf("diskHits=%d hits=%d, want 1/1", c2.DiskHits(), c2.Hits())
	}
	// The disk hit was promoted: a second Get is a memory hit.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if c2.DiskHits() != 1 {
		t.Errorf("second Get went to disk (diskHits=%d)", c2.DiskHits())
	}
}

// TestDiskHeaderMismatchIsMiss: an entry whose header names a
// different canonical key — hash collision, truncated write, foreign
// file — degrades to a clean miss plus a diskErrors bump, never a
// wrong payload.
func TestDiskHeaderMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, Config{Dir: dir})
	k := NewKey(specN(1))
	c.Put(k, []byte("payload"))

	path := filepath.Join(dir, k.Hash()+diskExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the header to claim a different key, keeping the payload.
	nl := bytes.IndexByte(raw, '\n')
	tampered := append([]byte(diskHeaderPrefix+NewKey(specN(2)).String()+"\n"), raw[nl+1:]...)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := mustCache(t, Config{Dir: dir})
	if _, ok := fresh.Get(k); ok {
		t.Error("mismatched header served as a hit")
	}
	if fresh.DiskErrors() != 1 {
		t.Errorf("diskErrors = %d, want 1", fresh.DiskErrors())
	}

	// The header only guards identity: a payload tampered *under the
	// correct header* IS served — by design. That gap is exactly what
	// the equiv-backed auditor exists to close (see internal/equiv
	// Audit and the server's end-to-end poisoning test).
	if err := os.WriteFile(path, append(raw[:nl+1:nl+1], []byte("poisoned")...), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh2 := mustCache(t, Config{Dir: dir})
	v, ok := fresh2.Get(k)
	if !ok || string(v) != "poisoned" {
		t.Fatalf("expected the unchecksummed payload to be served verbatim, got %q ok=%v", v, ok)
	}
}

// TestDiskEviction: the store trims oldest-first back under the bound
// and never removes the newest entry.
func TestDiskEviction(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, Config{Dir: dir, MaxDiskBytes: 300})
	payload := bytes.Repeat([]byte("z"), 100) // ~150 B per file with header
	for i := 0; i < 4; i++ {
		c.Put(NewKey(specN(i)), payload)
		// Distinct mtimes so eviction order is deterministic on
		// coarse-granularity filesystems.
		old := time.Now().Add(time.Duration(i-4) * time.Hour)
		os.Chtimes(filepath.Join(dir, NewKey(specN(i)).Hash()+diskExt), old, old)
	}
	c.Put(NewKey(specN(4)), payload)

	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	names := map[string]bool{}
	for _, de := range des {
		if filepath.Ext(de.Name()) != diskExt {
			continue
		}
		fi, _ := de.Info()
		total += fi.Size()
		names[de.Name()] = true
	}
	if total > 300 {
		t.Errorf("disk store %d bytes, bound 300", total)
	}
	if !names[NewKey(specN(4)).Hash()+diskExt] {
		t.Error("newest entry was evicted")
	}
	if names[NewKey(specN(0)).Hash()+diskExt] {
		t.Error("oldest entry survived eviction")
	}
}

// TestGetOrComputeSingleflight: N concurrent callers of one cold key
// run exactly one compute; everyone gets the same shared bytes.
func TestGetOrComputeSingleflight(t *testing.T) {
	c := mustCache(t, Config{})
	k := NewKey(specN(0))
	var computes atomic.Int64
	gate := make(chan struct{})

	const N = 16
	results := make([][]byte, N)
	hits := make([]bool, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) {
				<-gate // hold the flight open until all callers have piled on
				computes.Add(1)
				return []byte("computed-once"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i], hits[i] = v, hit
		}(i)
	}
	// Let every goroutine reach either the compute or the wait, then
	// release. Timing-based, but only in the generous direction.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	misses := 0
	for i := range results {
		if string(results[i]) != "computed-once" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers report a miss, want exactly 1 (the computer)", misses)
	}
	if c.Coalesced() != N-1 {
		t.Errorf("coalesced = %d, want %d", c.Coalesced(), N-1)
	}
	if c.Puts() != 1 {
		t.Errorf("puts = %d, want 1", c.Puts())
	}
}

// TestGetOrComputeFailureNotCached: a failed compute propagates to its
// caller only; the key stays cold and the next caller recomputes.
func TestGetOrComputeFailureNotCached(t *testing.T) {
	c := mustCache(t, Config{})
	k := NewKey(specN(0))
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("after failure: v=%q hit=%v err=%v, want fresh compute", v, hit, err)
	}
}

// TestGetOrComputeWaiterRetriesAfterComputerCanceled: a canceled
// computer must not poison healthy waiters — they go around and
// compute for themselves.
func TestGetOrComputeWaiterRetriesAfterComputerCanceled(t *testing.T) {
	c := mustCache(t, Config{})
	k := NewKey(specN(0))
	cctx, cancelComputer := context.WithCancel(context.Background())
	started := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetOrCompute(cctx, k, func(ctx context.Context) ([]byte, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("computer err = %v, want canceled", err)
		}
	}()

	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) {
			return []byte("healthy"), nil
		})
		if err != nil || string(v) != "healthy" {
			t.Errorf("waiter got v=%q err=%v, want healthy recompute", v, err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // waiter parks on the flight
	cancelComputer()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never recomputed after the computer was canceled")
	}
}

// TestNewBadDirErrors: an unusable cache directory must fail loudly,
// not silently degrade to memory-only.
func TestNewBadDirErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: filepath.Join(file, "sub")}); err == nil {
		t.Fatal("New with a file-shadowed dir succeeded")
	} else if !strings.Contains(err.Error(), "disk store") {
		t.Errorf("err = %v, want a disk store error", err)
	}
}

// TestKeyHashStem sanity: the disk file stem is 16 hex digits, stable
// across calls.
func TestKeyHashStem(t *testing.T) {
	k := NewKey(specN(0))
	h := k.Hash()
	if len(h) != 16 {
		t.Fatalf("hash %q not 16 chars", h)
	}
	if fmt.Sprintf("%016x", k.hash) != h {
		t.Fatal("Hash() disagrees with the raw hash")
	}
	if NewKey(specN(0)).Hash() != h {
		t.Fatal("hash not stable")
	}
}
