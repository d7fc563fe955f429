package btb

import "zbp/internal/zarch"

// Preload is the BTBP, the preload/filter/victim buffer used before
// z15 (paper §III): all BTB2 hit transfers were written here first,
// predictions were made out of both BTB1 and BTBP, content moved into
// the BTB1 only after a qualified BTBP hit, and BTB1 victims were
// captured here. z15 removed it, spending the area on a larger BTB1;
// it exists in this package so the zEC12/z13/z14 baseline
// configurations are faithful.
//
// The BTBP is modeled as a small fully-associative LRU buffer.
type Preload struct {
	entries []pentry
	// addrs[i] is the address last installed in entries[i], packed so
	// that the every-cycle SearchLine scans 8 bytes per slot and reads
	// an entry only for a candidate address. Promote and Invalidate
	// leave it behind, so readers also check the entry's valid bit.
	addrs []zarch.Addr
	tick  uint64
	stats PreloadStats
	// searchBuf is the reusable SearchLine result buffer (searched
	// every cycle on pre-z15 configurations).
	searchBuf []Info
}

type pentry struct {
	valid bool
	info  Info
	stamp uint64
}

// PreloadStats counts BTBP events.
type PreloadStats struct {
	Installs int64
	Hits     int64
	Promotes int64
}

// NewPreload returns a BTBP with the given capacity.
func NewPreload(capacity int) *Preload {
	if capacity <= 0 {
		panic("btb: BTBP capacity must be positive")
	}
	return &Preload{entries: make([]pentry, capacity), addrs: make([]zarch.Addr, capacity)}
}

// Stats returns a copy of the counters.
func (p *Preload) Stats() PreloadStats { return p.stats }

// Install writes info, replacing a same-address entry or the LRU one.
// The displaced victim, if any, is returned: in the semi-exclusive
// pre-z15 designs, BTBP victims flow onward into the BTB2.
func (p *Preload) Install(info Info) (victim Info, evicted bool) {
	p.stats.Installs++
	p.tick++
	lru := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.info.Addr == info.Addr {
			e.info = info
			e.stamp = p.tick
			return Info{}, false
		}
		if !e.valid {
			*e = pentry{valid: true, info: info, stamp: p.tick}
			p.addrs[i] = info.Addr
			return Info{}, false
		}
		if e.stamp < p.entries[lru].stamp {
			lru = i
		}
	}
	victim = p.entries[lru].info
	p.entries[lru] = pentry{valid: true, info: info, stamp: p.tick}
	p.addrs[lru] = info.Addr
	return victim, true
}

// SearchLine returns the branches in the given line (by true address;
// the BTBP is small enough that the model gives it full tags), sorted
// by address. The returned slice aliases an internal buffer and is
// only valid until the next SearchLine call.
func (p *Preload) SearchLine(line zarch.Addr, lineBytes int) []Info {
	base := line &^ zarch.Addr(lineBytes-1)
	out := p.searchBuf[:0]
	for i, a := range p.addrs {
		if a >= base && a < base+zarch.Addr(lineBytes) && p.entries[i].valid {
			out = append(out, p.entries[i].info)
		}
	}
	if len(out) > 1 {
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].Addr < out[j-1].Addr; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	if len(out) > 0 {
		p.stats.Hits++
	}
	p.searchBuf = out
	return out
}

// find returns the index of the first valid entry for addr, or -1.
func (p *Preload) find(addr zarch.Addr) int {
	for i, a := range p.addrs {
		if a == addr && p.entries[i].valid {
			return i
		}
	}
	return -1
}

// Promote removes and returns the entry for addr, if present: a
// qualified BTBP hit moves the branch into the BTB1.
func (p *Preload) Promote(addr zarch.Addr) (Info, bool) {
	i := p.find(addr)
	if i < 0 {
		return Info{}, false
	}
	p.entries[i].valid = false
	p.stats.Promotes++
	return p.entries[i].info, true
}

// Invalidate removes the entry for addr, if present, without counting
// a promote: the IDU found the branch to be bogus (§IV bad prediction).
func (p *Preload) Invalidate(addr zarch.Addr) bool {
	i := p.find(addr)
	if i >= 0 {
		p.entries[i].valid = false
	}
	return i >= 0
}

// Occupancy returns the number of valid entries.
func (p *Preload) Occupancy() int {
	n := 0
	for i := range p.entries {
		if p.entries[i].valid {
			n++
		}
	}
	return n
}

// Stage is the staging queue between the BTB2 and the BTB1 write port
// (paper §III): BTB2 hits are buffered here and drained one per cycle
// through the read-before-write duplicate check. It is "sized to handle
// the vast statistical majority of BTB2 branch hit transfers"; overflow
// is dropped and counted.
type Stage struct {
	buf      []Info
	capacity int
	drops    int64
	peak     int
}

// NewStage returns a staging queue with the given capacity.
func NewStage(capacity int) *Stage {
	if capacity <= 0 {
		panic("btb: stage capacity must be positive")
	}
	return &Stage{capacity: capacity}
}

// Push enqueues info, dropping it (and counting the drop) when full.
func (s *Stage) Push(info Info) {
	if len(s.buf) >= s.capacity {
		s.drops++
		return
	}
	s.buf = append(s.buf, info)
	if len(s.buf) > s.peak {
		s.peak = len(s.buf)
	}
}

// Pop dequeues the oldest entry.
func (s *Stage) Pop() (Info, bool) {
	if len(s.buf) == 0 {
		return Info{}, false
	}
	info := s.buf[0]
	copy(s.buf, s.buf[1:])
	s.buf = s.buf[:len(s.buf)-1]
	return info, true
}

// Remove discards every queued transfer for addr (an IDU-detected bad
// prediction must not re-enter the BTB1 from an in-flight backfill).
func (s *Stage) Remove(addr zarch.Addr) {
	kept := s.buf[:0]
	for _, info := range s.buf {
		if info.Addr != addr {
			kept = append(kept, info)
		}
	}
	s.buf = kept
}

// Len returns the current queue depth.
func (s *Stage) Len() int { return len(s.buf) }

// Drops returns how many transfers were lost to a full queue.
func (s *Stage) Drops() int64 { return s.drops }

// Peak returns the maximum depth observed.
func (s *Stage) Peak() int { return s.peak }
