// Package btb implements the branch target buffer hierarchy of the z15
// predictor (paper §III): the set-associative first-level BTB1 (which
// also embeds the BHT direction state and per-branch metadata), the
// large second-level BTB2 used as backfill, the staging queue between
// them, and the legacy BTBP preload/victim buffer used by the
// zEC12/z13/z14 baseline configurations.
//
// Tags are deliberately partial, as in the hardware: two distinct lines
// can fold to the same row and tag, producing "bad branch predictions"
// on non-branch text that the IDU later detects and removes (§IV).
package btb

import (
	"fmt"

	"zbp/internal/hashx"
	"zbp/internal/metrics"
	"zbp/internal/sat"
	"zbp/internal/zarch"
)

// SkootUnknown is the initial SKOOT state: perform no skipping until
// the offset has been learned (paper §IV).
const SkootUnknown = 0xff

// Info is the payload tracked per branch. It is what moves between
// BTB1, BTB2, BTBP and the staging queue.
type Info struct {
	// Addr is the branch instruction address as installed. On a lookup
	// hit the address is reconstructed from the searched line and the
	// stored offset, so an aliased entry reports the aliasing address,
	// exactly as the partial-tagged hardware would.
	Addr zarch.Addr
	// Len is the branch instruction length (2, 4 or 6).
	Len uint8
	// Kind is the branch-type metadata (conditional/unconditional,
	// relative/indirect, loop).
	Kind zarch.BranchKind
	// Target is the predicted target address.
	Target zarch.Addr
	// BHT is the embedded 2-bit direction counter (paper §V).
	BHT sat.Counter2
	// Bidirectional is set once the branch has resolved in both
	// directions; only then may the TAGE PHT and perceptron provide the
	// direction (§V, figure 8).
	Bidirectional bool
	// MultiTarget is set once a dynamically predicted target resolved
	// wrong; only then may CTB/CRS provide the target (§VI, figure 9).
	MultiTarget bool
	// IsReturn marks a detected return-like branch with ReturnOffset
	// the displacement (0,2,4,6,8) from the stacked NSIA (§VI).
	IsReturn     bool
	ReturnOffset uint8
	// CRSBlacklisted marks a branch whose CRS prediction resolved wrong;
	// amnesty can clear it (§VI).
	CRSBlacklisted bool
	// Skoot is the learned number of 64-byte lines that can be skipped
	// after this branch's target before the next predictable branch
	// (§IV). SkootUnknown disables skipping.
	Skoot uint8
}

// Geometry describes a set-associative BTB level.
type Geometry struct {
	RowBits   uint // log2 of logical rows
	Ways      int
	TagBits   uint // partial tag width
	LineShift uint // log2 of bytes covered per row index (6 = 64B)
}

// Rows returns the number of logical rows.
func (g Geometry) Rows() int { return 1 << g.RowBits }

// Capacity returns the total number of branch entries.
func (g Geometry) Capacity() int { return g.Rows() * g.Ways }

// LineBytes returns the bytes covered by one indexed line.
func (g Geometry) LineBytes() int { return 1 << g.LineShift }

// Line returns the line base address of addr under this geometry.
func (g Geometry) Line(addr zarch.Addr) zarch.Addr {
	return addr &^ (zarch.Addr(g.LineBytes()) - 1)
}

func (g Geometry) validate() error {
	if g.RowBits == 0 || g.RowBits > 24 || g.Ways <= 0 || g.Ways > 16 ||
		g.TagBits == 0 || g.TagBits > 32 || g.LineShift < 2 || g.LineShift > 12 {
		return fmt.Errorf("btb: invalid geometry %+v", g)
	}
	return nil
}

// Table entry storage is structure-of-arrays (see Table): the logical
// per-way record is {valid, tag, offset, info, stamp}, split into flat
// parallel slices indexed row*Ways+way.

// Hit is one matching entry from a line search.
type Hit struct {
	Info
	Way int
	// Aliased reports that the reconstructed address differs from the
	// installed one (partial-tag collision). Only the verification
	// harness looks at this; the predictor must treat aliased hits as
	// real, as the hardware does.
	Aliased bool
}

// Stats counts structure events.
type Stats struct {
	Searches    int64
	SearchHits  int64 // searches returning at least one branch
	Lookups     int64
	LookupHits  int64
	Installs    int64
	Updates     int64 // installs that matched an existing entry
	Evictions   int64
	Invalidates int64
	AliasedHits int64
}

// Register exposes every counter under prefix (e.g. "btb1") in the
// registry. The receiver must outlive the registry.
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	r.Counter(prefix+".searches", &s.Searches)
	r.Counter(prefix+".search_hits", &s.SearchHits)
	r.Counter(prefix+".lookups", &s.Lookups)
	r.Counter(prefix+".lookup_hits", &s.LookupHits)
	r.Counter(prefix+".installs", &s.Installs)
	r.Counter(prefix+".updates", &s.Updates)
	r.Counter(prefix+".evictions", &s.Evictions)
	r.Counter(prefix+".invalidates", &s.Invalidates)
	r.Counter(prefix+".aliased_hits", &s.AliasedHits)
}

// EventKind classifies a table write event for white-box observers.
type EventKind uint8

// Write-event kinds (paper §VII: reference models are driven by
// internal hardware signals, in lockstep).
const (
	EvInstall EventKind = iota
	EvUpdate
	EvEvict
	EvInvalidate
)

// Event is one observed table write.
type Event struct {
	Kind EventKind
	Row  int
	Way  int
	Info Info
}

// Table is one set-associative BTB level (used for both BTB1 and BTB2).
//
// Entry state is held structure-of-arrays: one flat slice per logical
// field, indexed row*Ways+way. The every-cycle operations (SearchLine,
// Lookup) only consult valid+tag(+offset) to find matching ways, so
// the SoA split means a row scan touches a few bytes per way in
// contiguous memory instead of pulling whole ~72-byte AoS entries
// (most of which is the Info payload, only needed on a hit) through
// the cache. The row base index is computed once per touch and every
// way access is a single-level indexed load off it.
type Table struct {
	geo Geometry
	// Parallel per-way columns, row-major (index row*Ways+way).
	valid    []bool
	tag      []uint64
	offset   []uint16 // branch offset within the line, in bytes
	stamp    []uint64 // LRU timestamp, larger = more recent
	info     []Info
	tick     uint64
	stats    Stats
	observer func(Event)
	// searchBuf/regionBuf are the reusable SearchLine/SearchRegion
	// result buffers; searches run every cycle, so returning a fresh
	// slice each time would dominate the simulator's allocation
	// profile.
	searchBuf []Hit
	regionBuf []Info
}

// SetObserver registers a white-box observer of every table write
// (verification harness use, §VII).
func (t *Table) SetObserver(fn func(Event)) { t.observer = fn }

func (t *Table) emit(kind EventKind, row, way int, info Info) {
	if t.observer != nil {
		t.observer(Event{Kind: kind, Row: row, Way: way, Info: info})
	}
}

// New returns an empty table with the given geometry.
func New(geo Geometry) *Table {
	if err := geo.validate(); err != nil {
		panic(err)
	}
	n := geo.Rows() * geo.Ways
	return &Table{
		geo:    geo,
		valid:  make([]bool, n),
		tag:    make([]uint64, n),
		offset: make([]uint16, n),
		stamp:  make([]uint64, n),
		info:   make([]Info, n),
	}
}

// Geometry returns the table geometry.
func (t *Table) Geometry() Geometry { return t.geo }

// Stats returns a copy of the event counters.
func (t *Table) Stats() Stats { return t.stats }

func (t *Table) row(addr zarch.Addr) int {
	return int(uint64(addr) >> t.geo.LineShift & uint64(t.geo.Rows()-1))
}

func (t *Table) tagOf(addr zarch.Addr) uint64 {
	return hashx.Fold(uint64(addr)>>(t.geo.LineShift+t.geo.RowBits), t.geo.TagBits)
}

func (t *Table) offsetOf(addr zarch.Addr) uint16 {
	return uint16(uint64(addr) & uint64(t.geo.LineBytes()-1))
}

// SearchLine returns every valid tag-matching branch in the row of
// line, sorted by offset (ascending), with addresses reconstructed from
// the searched line. The matched ways are touched as most recently
// used. The returned slice aliases an internal buffer and is only
// valid until the next SearchLine call on this table.
func (t *Table) SearchLine(line zarch.Addr) []Hit {
	t.stats.Searches++
	line = t.geo.Line(line)
	base := t.row(line) * t.geo.Ways
	tag := t.tagOf(line)
	if t.searchBuf == nil {
		t.searchBuf = make([]Hit, 0, t.geo.Ways)
	}
	hits := t.searchBuf[:0]
	t.tick++
	// Batched row touch: one pass over the row's valid+tag columns
	// finds every matching way; the wide Info payload is only loaded
	// for hits.
	for w := 0; w < t.geo.Ways; w++ {
		i := base + w
		if !t.valid[i] || t.tag[i] != tag {
			continue
		}
		info := t.info[i]
		rec := line + zarch.Addr(t.offset[i])
		aliased := info.Addr != rec
		info.Addr = rec
		if aliased {
			t.stats.AliasedHits++
		}
		t.stamp[i] = t.tick
		hits = append(hits, Hit{Info: info, Way: w, Aliased: aliased})
	}
	if len(hits) > 0 {
		t.stats.SearchHits++
		// Insertion sort by offset: hits are bounded by associativity
		// (a handful), and sort.Slice's closure would allocate.
		mask := uint64(t.geo.LineBytes() - 1)
		for i := 1; i < len(hits); i++ {
			for j := i; j > 0 && uint64(hits[j].Addr)&mask < uint64(hits[j-1].Addr)&mask; j-- {
				hits[j], hits[j-1] = hits[j-1], hits[j]
			}
		}
	}
	t.searchBuf = hits
	return hits
}

// Lookup finds the entry matching addr exactly (row, tag and offset),
// without touching LRU. Used by the write pipeline's read-before-write
// duplicate check and by completion updates.
func (t *Table) Lookup(addr zarch.Addr) (Info, bool) {
	t.stats.Lookups++
	base := t.row(addr) * t.geo.Ways
	tag := t.tagOf(addr)
	off := t.offsetOf(addr)
	for w := 0; w < t.geo.Ways; w++ {
		i := base + w
		if t.valid[i] && t.tag[i] == tag && t.offset[i] == off {
			t.stats.LookupHits++
			info := t.info[i]
			info.Addr = addr
			return info, true
		}
	}
	return Info{}, false
}

// Update applies fn to the entry matching addr, if present. Returns
// whether an entry was found. Does not touch LRU (completion updates
// should not refresh recency in this model).
func (t *Table) Update(addr zarch.Addr, fn func(*Info)) bool {
	base := t.row(addr) * t.geo.Ways
	tag := t.tagOf(addr)
	off := t.offsetOf(addr)
	for w := 0; w < t.geo.Ways; w++ {
		i := base + w
		if t.valid[i] && t.tag[i] == tag && t.offset[i] == off {
			fn(&t.info[i])
			t.emit(EvUpdate, t.row(addr), w, t.info[i])
			return true
		}
	}
	return false
}

// Install writes info into the table. If an entry for the same address
// already exists its payload is replaced (counted as an update, the
// dedup path of §IV). Otherwise an invalid way or the LRU way is used;
// the victim, if any, is returned so a BTBP configuration can capture
// it.
func (t *Table) Install(info Info) (victim Info, evicted bool) {
	t.stats.Installs++
	rowIdx := t.row(info.Addr)
	base := rowIdx * t.geo.Ways
	tag := t.tagOf(info.Addr)
	off := t.offsetOf(info.Addr)
	t.tick++
	// Duplicate check (read before write).
	for w := 0; w < t.geo.Ways; w++ {
		i := base + w
		if t.valid[i] && t.tag[i] == tag && t.offset[i] == off {
			t.info[i] = info
			t.stamp[i] = t.tick
			t.stats.Updates++
			t.emit(EvUpdate, rowIdx, w, info)
			return Info{}, false
		}
	}
	// Free way?
	for w := 0; w < t.geo.Ways; w++ {
		i := base + w
		if !t.valid[i] {
			t.set(i, tag, off, info)
			t.emit(EvInstall, rowIdx, w, info)
			return Info{}, false
		}
	}
	// Evict LRU.
	lru := 0
	for w := 1; w < t.geo.Ways; w++ {
		if t.stamp[base+w] < t.stamp[base+lru] {
			lru = w
		}
	}
	victim = t.info[base+lru]
	t.emit(EvEvict, rowIdx, lru, victim)
	t.set(base+lru, tag, off, info)
	t.stats.Evictions++
	t.emit(EvInstall, rowIdx, lru, info)
	return victim, true
}

// set writes one logical entry across the columns at flat index i.
func (t *Table) set(i int, tag uint64, off uint16, info Info) {
	t.valid[i] = true
	t.tag[i] = tag
	t.offset[i] = off
	t.stamp[i] = t.tick
	t.info[i] = info
}

// Invalidate removes the entry matching addr, reporting whether one
// existed. Used when the IDU detects a bad branch prediction (§IV).
func (t *Table) Invalidate(addr zarch.Addr) bool {
	base := t.row(addr) * t.geo.Ways
	tag := t.tagOf(addr)
	off := t.offsetOf(addr)
	for w := 0; w < t.geo.Ways; w++ {
		i := base + w
		if t.valid[i] && t.tag[i] == tag && t.offset[i] == off {
			t.valid[i] = false
			t.stats.Invalidates++
			t.emit(EvInvalidate, t.row(addr), w, t.info[i])
			return true
		}
	}
	return false
}

// LRUVictim returns the next-to-be-evicted entry of line's row, if the
// row is full. The periodic refresh mechanism writes this entry back to
// the BTB2 (§III).
func (t *Table) LRUVictim(line zarch.Addr) (Info, bool) {
	base := t.row(line) * t.geo.Ways
	lru, found := 0, true
	for w := 0; w < t.geo.Ways; w++ {
		if !t.valid[base+w] {
			found = false
			break
		}
		if t.stamp[base+w] < t.stamp[base+lru] {
			lru = w
		}
	}
	if !found {
		return Info{}, false
	}
	return t.info[base+lru], true
}

// SearchRegion scans consecutive lines starting at from, collecting up
// to maxBranches tag-matching entries; it models the bulk BTB2 search
// that can return "up to 128 branches" (§III). Reconstructed addresses
// use the searched lines. LRU is not touched (the BTB2's own recency is
// not modeled beyond its LRU on install). The returned slice aliases an
// internal buffer and is only valid until the next SearchRegion call.
func (t *Table) SearchRegion(from zarch.Addr, lines, maxBranches int) []Info {
	out := t.regionBuf[:0]
	line := t.geo.Line(from)
	for l := 0; l < lines && len(out) < maxBranches; l++ {
		base := t.row(line) * t.geo.Ways
		tag := t.tagOf(line)
		for w := 0; w < t.geo.Ways; w++ {
			i := base + w
			if !t.valid[i] || t.tag[i] != tag {
				continue
			}
			info := t.info[i]
			info.Addr = line + zarch.Addr(t.offset[i])
			out = append(out, info)
			if len(out) >= maxBranches {
				break
			}
		}
		line += zarch.Addr(t.geo.LineBytes())
	}
	// Insertion sort by address: the scan appends in ascending line
	// order, so the slice is already nearly sorted (only within-row way
	// order can be off), and sort.Slice's closure would allocate.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Addr < out[j-1].Addr; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	t.regionBuf = out
	return out
}

// Occupancy returns the number of valid entries (for tests and the
// verification harness).
func (t *Table) Occupancy() int {
	n := 0
	for _, v := range t.valid {
		if v {
			n++
		}
	}
	return n
}

// Reset invalidates every entry and clears statistics.
func (t *Table) Reset() {
	clear(t.valid)
	clear(t.tag)
	clear(t.offset)
	clear(t.stamp)
	clear(t.info)
	t.tick = 0
	t.stats = Stats{}
}
