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

// pageRowBits is log2 of the rows one storage page holds (see Table).
// A geometry with fewer rows has a single page.
const pageRowBits = 5

// page holds the entry columns of consecutive rows, structure-of-arrays:
// the logical per-way record {valid, tag, offset, info, stamp} is split
// into parallel slices indexed (row within page)*Ways+way.
type page struct {
	valid  []bool
	tag    []uint64
	offset []uint16 // branch offset within the line, in bytes
	stamp  []uint64 // LRU timestamp, larger = more recent
	info   []Info
}

func newPage(n int) *page {
	return &page{
		valid:  make([]bool, n),
		tag:    make([]uint64, n),
		offset: make([]uint16, n),
		stamp:  make([]uint64, n),
		info:   make([]Info, n),
	}
}

// set writes one logical entry across the columns at index i.
func (p *page) set(i int, tag uint64, off uint16, stamp uint64, info Info) {
	p.valid[i] = true
	p.tag[i] = tag
	p.offset[i] = off
	p.stamp[i] = stamp
	p.info[i] = info
}

// Hit is one matching entry from a line search.
type Hit struct {
	Info
	Way int
	// Aliased reports that the reconstructed address differs from the
	// installed one (partial-tag collision). The predictor ignores it
	// and treats aliased hits as real, as the hardware does; the
	// AliasedHits counter carries the same event into the stats.
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
// Entry state is held structure-of-arrays in pages of 1<<pageRowBits
// rows. The every-cycle operations (SearchLine, Lookup) only consult
// valid+tag(+offset) to find matching ways, so the SoA split means a
// row scan touches a few bytes per way in contiguous memory instead of
// pulling whole AoS entries (most of which is the Info payload, only
// needed on a hit) through the cache.
//
// A page is allocated by the first Install into one of its rows; until
// then its rows read from the table's one all-invalid empty page, which
// every read path scans like any other and none writes. A run's table
// memory therefore follows the rows it writes, not the geometry: a z15
// BTB2 has 32K rows, and a short run writes a few hundred.
type Table struct {
	geo Geometry
	// pages[row>>pageRowBits] holds row, at way-0 index
	// (row&rowMask)*Ways; an unwritten page is empty.
	pages    []*page
	empty    *page
	rowMask  int
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
	pageRows := min(geo.Rows(), 1<<pageRowBits)
	t := &Table{
		geo:     geo,
		pages:   make([]*page, geo.Rows()/pageRows),
		empty:   newPage(pageRows * geo.Ways),
		rowMask: pageRows - 1,
	}
	for i := range t.pages {
		t.pages[i] = t.empty
	}
	return t
}

// Stats returns a copy of the event counters.
func (t *Table) Stats() Stats { return t.stats }

func (t *Table) row(addr zarch.Addr) int {
	return int(uint64(addr) >> t.geo.LineShift & uint64(t.geo.Rows()-1))
}

// slot returns the page holding row and the index of its way 0 there.
func (t *Table) slot(row int) (*page, int) {
	return t.pages[row>>pageRowBits], (row & t.rowMask) * t.geo.Ways
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
	p, base := t.slot(t.row(line))
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
		if !p.valid[i] || p.tag[i] != tag {
			continue
		}
		info := p.info[i]
		rec := line + zarch.Addr(p.offset[i])
		aliased := info.Addr != rec
		info.Addr = rec
		if aliased {
			t.stats.AliasedHits++
		}
		p.stamp[i] = t.tick
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

// find returns the page and index of the entry matching addr exactly
// (row, tag and offset), or i < 0 when there is none.
func (t *Table) find(addr zarch.Addr) (p *page, i int) {
	p, base := t.slot(t.row(addr))
	tag := t.tagOf(addr)
	off := t.offsetOf(addr)
	for w := 0; w < t.geo.Ways; w++ {
		i := base + w
		if p.valid[i] && p.tag[i] == tag && p.offset[i] == off {
			return p, i
		}
	}
	return p, -1
}

// Lookup finds the entry matching addr exactly (row, tag and offset),
// without touching LRU. Used by the write pipeline's read-before-write
// duplicate check and by completion updates.
func (t *Table) Lookup(addr zarch.Addr) (Info, bool) {
	t.stats.Lookups++
	p, i := t.find(addr)
	if i < 0 {
		return Info{}, false
	}
	t.stats.LookupHits++
	info := p.info[i]
	info.Addr = addr
	return info, true
}

// Update applies fn to the entry matching addr, if present. Returns
// whether an entry was found. Does not touch LRU (completion updates
// should not refresh recency in this model).
func (t *Table) Update(addr zarch.Addr, fn func(*Info)) bool {
	p, i := t.find(addr)
	if i < 0 {
		return false
	}
	fn(&p.info[i])
	t.emit(EvUpdate, t.row(addr), i%t.geo.Ways, p.info[i])
	return true
}

// Install writes info into the table. If an entry for the same address
// already exists its payload is replaced (counted as an update, the
// dedup path of §IV). Otherwise an invalid way or the LRU way is used;
// the victim, if any, is returned so a BTBP configuration can capture
// it. The first Install into an empty page allocates it.
func (t *Table) Install(info Info) (victim Info, evicted bool) {
	t.stats.Installs++
	rowIdx := t.row(info.Addr)
	p, base := t.slot(rowIdx)
	if p == t.empty {
		p = newPage(len(p.valid))
		t.pages[rowIdx>>pageRowBits] = p
	}
	tag := t.tagOf(info.Addr)
	off := t.offsetOf(info.Addr)
	t.tick++
	// Duplicate check (read before write).
	for w := 0; w < t.geo.Ways; w++ {
		i := base + w
		if p.valid[i] && p.tag[i] == tag && p.offset[i] == off {
			p.info[i] = info
			p.stamp[i] = t.tick
			t.stats.Updates++
			t.emit(EvUpdate, rowIdx, w, info)
			return Info{}, false
		}
	}
	// Free way?
	for w := 0; w < t.geo.Ways; w++ {
		i := base + w
		if !p.valid[i] {
			p.set(i, tag, off, t.tick, info)
			t.emit(EvInstall, rowIdx, w, info)
			return Info{}, false
		}
	}
	// Evict LRU.
	lru := 0
	for w := 1; w < t.geo.Ways; w++ {
		if p.stamp[base+w] < p.stamp[base+lru] {
			lru = w
		}
	}
	victim = p.info[base+lru]
	t.emit(EvEvict, rowIdx, lru, victim)
	p.set(base+lru, tag, off, t.tick, info)
	t.stats.Evictions++
	t.emit(EvInstall, rowIdx, lru, info)
	return victim, true
}

// Invalidate removes the entry matching addr, reporting whether one
// existed. Used when the IDU detects a bad branch prediction (§IV).
func (t *Table) Invalidate(addr zarch.Addr) bool {
	p, i := t.find(addr)
	if i < 0 {
		return false
	}
	p.valid[i] = false
	t.stats.Invalidates++
	t.emit(EvInvalidate, t.row(addr), i%t.geo.Ways, p.info[i])
	return true
}

// LRUVictim returns the next-to-be-evicted entry of line's row, if the
// row is full. The periodic refresh mechanism writes this entry back to
// the BTB2 (§III).
func (t *Table) LRUVictim(line zarch.Addr) (Info, bool) {
	p, base := t.slot(t.row(line))
	lru := base
	for i := base; i < base+t.geo.Ways; i++ {
		if !p.valid[i] {
			return Info{}, false
		}
		if p.stamp[i] < p.stamp[lru] {
			lru = i
		}
	}
	return p.info[lru], true
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
		p, base := t.slot(t.row(line))
		tag := t.tagOf(line)
		for w := 0; w < t.geo.Ways; w++ {
			i := base + w
			if !p.valid[i] || p.tag[i] != tag {
				continue
			}
			info := p.info[i]
			info.Addr = line + zarch.Addr(p.offset[i])
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
	for _, p := range t.pages {
		if p == t.empty {
			continue
		}
		for _, v := range p.valid {
			if v {
				n++
			}
		}
	}
	return n
}
