package lru

import (
	"context"
	"sync"
	"testing"
	"time"
)

// The result cache's tests (internal/rcache) cover recency order,
// singleflight, failed fills and waiter retries through this type.
// These cover what they do not.

// TestOversizedEntryAdmittedAlone: an entry larger than the whole
// budget evicts everything else and stays resident on its own.
func TestOversizedEntryAdmittedAlone(t *testing.T) {
	c := New[string](10, func(v int) int64 { return int64(v) })
	c.Put("a", 4)
	c.Put("b", 4)
	c.Put("big", 100)
	if v, ok := c.Get("big"); !ok || v != 100 {
		t.Fatalf("oversized entry not resident: %v %v", v, ok)
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("%q survived an oversized newcomer", k)
		}
	}
	if c.Len() != 1 || c.Bytes() != 100 || c.Evictions() != 2 {
		t.Errorf("len %d bytes %d evictions %d, want 1, 100, 2", c.Len(), c.Bytes(), c.Evictions())
	}
}

// parkCtx closes parked the first time a caller selects on Done: in
// GetOrCompute that happens only once the caller is waiting on another
// caller's flight.
type parkCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (p *parkCtx) Done() <-chan struct{} {
	p.once.Do(func() { close(p.parked) })
	return p.Context.Done()
}

// TestFillPanicReleasesWaiters: a fill that panics must not strand
// the callers waiting on its flight; they retry and fill themselves.
func TestFillPanicReleasesWaiters(t *testing.T) {
	c := New[string](10, func(int) int64 { return 1 })
	entered, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.GetOrCompute(context.Background(), "k", func(context.Context) (int, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	got := make(chan int, 1)
	wctx := &parkCtx{Context: context.Background(), parked: make(chan struct{})}
	go func() {
		v, _, err := c.GetOrCompute(wctx, "k", func(context.Context) (int, error) { return 7, nil })
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	<-wctx.parked // the waiter holds the doomed flight
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("filler recovered %v, want the fill's panic", r)
	}
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("waiter got %d, want its own fill's 7", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stranded by a panicking fill")
	}
}
