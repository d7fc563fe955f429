package server

import (
	"testing"
	"time"
)

func TestBucket(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	b := newBucket(10, 5, now) // 10 tokens/s, burst 5

	if ok, _ := b.take(5); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, wait := b.take(1)
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if wait <= 0 || wait > time.Second {
		t.Errorf("refill hint %v, want ~100ms", wait)
	}
	clock = clock.Add(500 * time.Millisecond) // +5 tokens
	if ok, _ := b.take(5); !ok {
		t.Error("bucket did not refill with time")
	}
	clock = clock.Add(time.Hour)
	if got := b.available(); got != 5 {
		t.Errorf("bucket overfilled past capacity: %v", got)
	}
}
