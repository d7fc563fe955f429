// Package icache models the instruction-side cache hierarchy the
// predictor prefetches into (paper §II, §IV): a private L1I, a private
// L2I reachable in +8 cycles, and the shared L3 at 45 cycles. Because
// the lookahead predictor searches far ahead of instruction fetching,
// its search stream doubles as an effective instruction prefetcher --
// "mitigating and often eliminating the penalty of L1 instruction
// cache misses" (§IV). The hierarchy tracks in-flight fills so a
// prefetch issued k cycles before the demand fetch hides k cycles of
// miss latency.
package icache

import (
	"fmt"
	"sort"

	"zbp/internal/metrics"
	"zbp/internal/zarch"
)

// Config describes the two modeled private levels; beyond L2 every
// access hits the (effectively infinite) shared L3.
type Config struct {
	LineBytes int
	L1Bytes   int
	L1Ways    int
	L2Bytes   int
	L2Ways    int
	// L2Latency/L3Latency are the extra cycles to data-ready relative
	// to an L1 hit (8 and 45 on z15, §II.A).
	L2Latency int64
	L3Latency int64
}

// Z15 returns the modeled z15 instruction-side hierarchy: 128KB L1I,
// 4MB L2I (+8 cycles), L3 at 45 cycles.
func Z15() Config {
	return Config{LineBytes: 256, L1Bytes: 128 << 10, L1Ways: 8,
		L2Bytes: 4 << 20, L2Ways: 8, L2Latency: 8, L3Latency: 45}
}

// Z14 returns the modeled z14 hierarchy: 128KB L1I, 2MB L2I.
func Z14() Config {
	c := Z15()
	c.L2Bytes = 2 << 20
	return c
}

// Z13 returns the modeled z13 hierarchy: 96KB L1I, 2MB L2I.
func Z13() Config {
	c := Z14()
	c.L1Bytes = 96 << 10
	c.L1Ways = 6
	return c
}

// ZEC12 returns the modeled zEC12 hierarchy: 64KB L1I, 1MB L2I.
func ZEC12() Config {
	c := Z15()
	c.L1Bytes = 64 << 10
	c.L1Ways = 4
	c.L2Bytes = 1 << 20
	return c
}

// Stats counts hierarchy events.
type Stats struct {
	Accesses         int64
	L1Hits           int64
	L2Hits           int64
	L3Fills          int64
	Prefetches       int64
	PrefetchUseful   int64 // demand access found the line prefetched/in flight
	DemandWaitCycles int64 // cycles demand fetches spent waiting on fills
	// WaitHist distributes the per-demand-miss wait in cycles: how much
	// of the raw miss latency the lookahead prefetcher failed to hide.
	WaitHist metrics.Hist
}

// NewWaitHist returns the wait-latency histogram shape: buckets up to
// the modeled L2 (+8) and L3 (+45) latencies with resolution in
// between, overflow beyond 64 cycles.
func NewWaitHist() metrics.Hist {
	return metrics.NewHist(0, 2, 4, 8, 16, 32, 64)
}

// Register exposes every counter and the wait histogram under prefix
// (e.g. "icache").
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	r.Counter(prefix+".accesses", &s.Accesses)
	r.Counter(prefix+".l1_hits", &s.L1Hits)
	r.Counter(prefix+".l2_hits", &s.L2Hits)
	r.Counter(prefix+".l3_fills", &s.L3Fills)
	r.Counter(prefix+".prefetches", &s.Prefetches)
	r.Counter(prefix+".prefetch_useful", &s.PrefetchUseful)
	r.Counter(prefix+".demand_wait_cycles", &s.DemandWaitCycles)
	r.Hist(prefix+".demand_wait", &s.WaitHist)
}

type level struct {
	rows     int
	ways     int
	lineBits uint
	// tags/stamps are row-major columns indexed row*ways+way.
	tags   []uint64 // tag 0 = invalid (tags stored +1)
	stamps []int64
}

func newLevel(bytes, ways, lineBytes int) *level {
	rows := bytes / lineBytes / ways
	if rows <= 0 || rows&(rows-1) != 0 {
		panic(fmt.Sprintf("icache: rows %d not a power of two", rows))
	}
	lb := uint(0)
	for 1<<lb < lineBytes {
		lb++
	}
	return &level{rows: rows, ways: ways, lineBits: lb,
		tags: make([]uint64, rows*ways), stamps: make([]int64, rows*ways)}
}

// rowTag returns the index of line's way 0 in the columns and its tag.
func (l *level) rowTag(line zarch.Addr) (int, uint64) {
	n := uint64(line) >> l.lineBits
	// Full-precision tags (+1 so 0 means invalid): caches do not alias.
	return int(n&uint64(l.rows-1)) * l.ways, n + 1
}

func (l *level) lookup(line zarch.Addr, now int64) bool {
	base, tag := l.rowTag(line)
	for i := base; i < base+l.ways; i++ {
		if l.tags[i] == tag {
			l.stamps[i] = now
			return true
		}
	}
	return false
}

func (l *level) fill(line zarch.Addr, now int64) {
	base, tag := l.rowTag(line)
	lru := base
	for i := base; i < base+l.ways; i++ {
		if l.tags[i] == tag {
			l.stamps[i] = now
			return
		}
		if l.tags[i] == 0 {
			l.tags[i] = tag
			l.stamps[i] = now
			return
		}
		if l.stamps[i] < l.stamps[lru] {
			lru = i
		}
	}
	l.tags[lru] = tag
	l.stamps[lru] = now
}

// Hierarchy is the modeled I-side cache stack.
type Hierarchy struct {
	cfg      Config
	l1, l2   *level
	inflight map[zarch.Addr]int64 // line -> ready cycle
	tickBuf  []pendingFill        // scratch for Tick retirement
	stats    Stats

	// fillHook, when set, observes every completed line fill (event-log
	// wiring); nil costs the hot path one predictable branch.
	fillHook func(line zarch.Addr, ready int64)
}

type pendingFill struct {
	line  zarch.Addr
	ready int64
}

// New builds a hierarchy for cfg.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg:      cfg,
		l1:       newLevel(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes),
		l2:       newLevel(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes),
		inflight: make(map[zarch.Addr]int64),
	}
	h.stats.WaitHist = NewWaitHist()
	return h
}

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// SetFillHook registers an observer of every completed line fill.
func (h *Hierarchy) SetFillHook(fn func(line zarch.Addr, ready int64)) { h.fillHook = fn }

// Line returns the cache line base of addr.
func (h *Hierarchy) Line(addr zarch.Addr) zarch.Addr {
	return addr &^ zarch.Addr(h.cfg.LineBytes-1)
}

// missLatency returns the extra cycles to fetch a line absent from L1.
func (h *Hierarchy) missLatency(line zarch.Addr, now int64) int64 {
	if h.l2.lookup(line, now) {
		h.stats.L2Hits++
		return h.cfg.L2Latency
	}
	h.stats.L3Fills++
	return h.cfg.L3Latency
}

// Access performs a demand instruction fetch of addr's line and
// returns the cycle at which its text is available. Fills complete at
// the returned cycle.
func (h *Hierarchy) Access(addr zarch.Addr, now int64) int64 {
	line := h.Line(addr)
	h.stats.Accesses++
	if h.l1.lookup(line, now) {
		h.stats.L1Hits++
		return now
	}
	if ready, ok := h.inflight[line]; ok {
		// A prefetch is already bringing the line in.
		h.stats.PrefetchUseful++
		if ready <= now {
			h.stats.WaitHist.Observe(0)
			h.finishFill(line, now)
			return now
		}
		h.stats.DemandWaitCycles += ready - now
		h.stats.WaitHist.Observe(ready - now)
		h.finishFill(line, ready)
		return ready
	}
	lat := h.missLatency(line, now)
	h.stats.DemandWaitCycles += lat
	h.stats.WaitHist.Observe(lat)
	h.finishFill(line, now+lat)
	return now + lat
}

func (h *Hierarchy) finishFill(line zarch.Addr, at int64) {
	delete(h.inflight, line)
	h.l1.fill(line, at)
	h.l2.fill(line, at)
	if h.fillHook != nil {
		h.fillHook(line, at)
	}
}

// Prefetch hints that addr's line will be fetched soon (the BPL search
// stream, §IV). Already-present or already-inflight lines are ignored.
func (h *Hierarchy) Prefetch(addr zarch.Addr, now int64) {
	line := h.Line(addr)
	if h.l1.lookup(line, now) {
		return
	}
	if _, ok := h.inflight[line]; ok {
		return
	}
	h.stats.Prefetches++
	h.inflight[line] = now + h.missLatency(line, now)
}

// Tick retires completed in-flight fills (bounds the map size on long
// runs). Completed lines retire in (ready, address) order: filling
// straight out of the map range would let its iteration order pick LRU
// victims, making otherwise-identical runs diverge.
func (h *Hierarchy) Tick(now int64) {
	if len(h.inflight) < 1024 {
		return
	}
	done := h.tickBuf[:0]
	for line, ready := range h.inflight {
		if ready <= now {
			done = append(done, pendingFill{line, ready})
		}
	}
	sort.Slice(done, func(a, b int) bool {
		if done[a].ready != done[b].ready {
			return done[a].ready < done[b].ready
		}
		return done[a].line < done[b].line
	})
	for _, f := range done {
		h.finishFill(f.line, f.ready)
	}
	h.tickBuf = done
}
