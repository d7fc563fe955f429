package server

import (
	"sync"
	"time"
)

// bucket is a token bucket charging one token per grid cell at
// admission time, so a burst of huge sweeps degrades into 429s with
// honest Retry-After hints instead of an unbounded dispatch pile-up.
// A grid larger than the bucket is charged the whole bucket, so it is
// admitted once the bucket is full rather than never. The clock is
// injected so tests drive refill deterministically.
type bucket struct {
	mu       sync.Mutex
	tokens   float64
	capacity float64
	rate     float64 // tokens per second
	last     time.Time
	now      func() time.Time
}

func newBucket(rate, capacity float64, now func() time.Time) *bucket {
	return &bucket{tokens: capacity, capacity: capacity, rate: rate, last: now(), now: now}
}

// take attempts to spend n tokens (at most the capacity). On refusal it
// returns how long until the bucket could cover them, which becomes
// the Retry-After hint.
func (b *bucket) take(n float64) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	n = min(n, b.capacity)
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	return false, time.Duration((n - b.tokens) / b.rate * float64(time.Second))
}

// refund returns what take(n) charged, for work that was admitted but
// never ran.
func (b *bucket) refund(n float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = min(b.tokens+min(n, b.capacity), b.capacity)
}

// available returns the current token count (for the admission gauge).
func (b *bucket) available() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	return b.tokens
}

func (b *bucket) refillLocked() {
	now := b.now()
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.last = now
	b.tokens = min(b.tokens+dt*b.rate, b.capacity)
}
