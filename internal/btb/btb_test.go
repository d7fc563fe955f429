package btb

import (
	"sort"
	"testing"
	"testing/quick"

	"zbp/internal/sat"
	"zbp/internal/zarch"
)

var testGeo = Geometry{RowBits: 11, Ways: 8, TagBits: 16, LineShift: 6}

func info(addr zarch.Addr) Info {
	return Info{Addr: addr, Len: 4, Kind: zarch.KindCondRel,
		Target: addr + 0x40, BHT: sat.WeakT, Skoot: SkootUnknown}
}

func TestGeometry(t *testing.T) {
	if testGeo.Rows() != 2048 || testGeo.Capacity() != 16384 || testGeo.LineBytes() != 64 {
		t.Fatalf("z15 geometry wrong: %d rows, %d cap", testGeo.Rows(), testGeo.Capacity())
	}
	if testGeo.Line(0x12345) != 0x12340 {
		t.Errorf("Line = %s", testGeo.Line(0x12345))
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid geometry")
		}
	}()
	New(Geometry{})
}

func TestInstallSearchLine(t *testing.T) {
	tb := New(testGeo)
	a1, a2 := zarch.Addr(0x10008), zarch.Addr(0x10030)
	tb.Install(info(a1))
	tb.Install(info(a2))
	hits := tb.SearchLine(0x10000)
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].Addr != a1 || hits[1].Addr != a2 {
		t.Errorf("hit order: %s, %s", hits[0].Addr, hits[1].Addr)
	}
	if hits[0].Aliased || hits[1].Aliased {
		t.Error("unexpected aliasing")
	}
	// Other lines see nothing.
	if got := tb.SearchLine(0x20000); len(got) != 0 {
		t.Errorf("foreign line hits = %d", len(got))
	}
}

func TestSearchLineNormalizesAddr(t *testing.T) {
	tb := New(testGeo)
	tb.Install(info(0x10008))
	// Searching mid-line must behave as searching the line base.
	hits := tb.SearchLine(0x10020)
	if len(hits) != 1 || hits[0].Addr != 0x10008 {
		t.Fatalf("mid-line search: %+v", hits)
	}
}

func TestInstallDedup(t *testing.T) {
	tb := New(testGeo)
	tb.Install(info(0x10008))
	i2 := info(0x10008)
	i2.Target = 0x99900
	if _, ev := tb.Install(i2); ev {
		t.Error("duplicate install evicted")
	}
	got, ok := tb.Lookup(0x10008)
	if !ok || got.Target != 0x99900 {
		t.Errorf("payload not replaced: %+v ok=%v", got, ok)
	}
	if tb.Stats().Updates != 1 {
		t.Errorf("Updates = %d", tb.Stats().Updates)
	}
	if tb.Occupancy() != 1 {
		t.Errorf("occupancy = %d", tb.Occupancy())
	}
}

func TestEvictionLRU(t *testing.T) {
	geo := Geometry{RowBits: 4, Ways: 2, TagBits: 16, LineShift: 6}
	tb := New(geo)
	// Three branches in the same row (line stride = rows*linebytes).
	stride := zarch.Addr(geo.Rows() * geo.LineBytes())
	a, b, c := zarch.Addr(0x10000), zarch.Addr(0x10000)+stride, zarch.Addr(0x10000)+2*stride
	tb.Install(info(a))
	tb.Install(info(b))
	// Touch a so b becomes LRU.
	tb.SearchLine(a)
	victim, ev := tb.Install(info(c))
	if !ev {
		t.Fatal("no eviction from full row")
	}
	if victim.Addr != b {
		t.Errorf("victim = %s, want %s", victim.Addr, b)
	}
	if _, ok := tb.Lookup(a); !ok {
		t.Error("recently used entry evicted")
	}
}

func TestPartialTagAliasing(t *testing.T) {
	// With a tiny tag, two different lines mapping to the same row and
	// tag must alias, and the hit must report the searched address.
	geo := Geometry{RowBits: 2, Ways: 2, TagBits: 1, LineShift: 6}
	tb := New(geo)
	base := zarch.Addr(0x10008)
	tb.Install(info(base))
	found := false
	stride := zarch.Addr(geo.Rows() * geo.LineBytes())
	for k := zarch.Addr(1); k < 64 && !found; k++ {
		line := (base + k*stride).Line64()
		hits := tb.SearchLine(line)
		for _, h := range hits {
			if h.Aliased {
				if h.Addr.Line64() != line {
					t.Fatalf("aliased hit reports %s outside searched line %s", h.Addr, line)
				}
				found = true
			}
		}
	}
	if !found {
		t.Error("no aliasing with 1-bit tags; partial tagging is not modeled")
	}
	if tb.Stats().AliasedHits == 0 {
		t.Error("AliasedHits not counted")
	}
}

func TestUpdateInvalidate(t *testing.T) {
	tb := New(testGeo)
	tb.Install(info(0x10008))
	if !tb.Update(0x10008, func(i *Info) { i.Bidirectional = true }) {
		t.Fatal("Update missed existing entry")
	}
	got, _ := tb.Lookup(0x10008)
	if !got.Bidirectional {
		t.Error("Update not applied")
	}
	if tb.Update(0x55500, func(*Info) {}) {
		t.Error("Update hit a missing entry")
	}
	if !tb.Invalidate(0x10008) {
		t.Fatal("Invalidate missed")
	}
	if _, ok := tb.Lookup(0x10008); ok {
		t.Error("entry survived Invalidate")
	}
	if tb.Invalidate(0x10008) {
		t.Error("double Invalidate succeeded")
	}
}

func TestLRUVictimOnlyWhenFull(t *testing.T) {
	geo := Geometry{RowBits: 4, Ways: 2, TagBits: 16, LineShift: 6}
	tb := New(geo)
	a := zarch.Addr(0x10000)
	tb.Install(info(a))
	if _, ok := tb.LRUVictim(a); ok {
		t.Error("LRUVictim on non-full row")
	}
	stride := zarch.Addr(geo.Rows() * geo.LineBytes())
	tb.Install(info(a + stride))
	tb.SearchLine(a + stride) // make the second entry MRU
	v, ok := tb.LRUVictim(a)
	if !ok || v.Addr != a {
		t.Errorf("LRUVictim = %+v, %v", v, ok)
	}
}

func TestSearchRegion(t *testing.T) {
	tb := New(testGeo)
	for i := 0; i < 10; i++ {
		tb.Install(info(zarch.Addr(0x40000 + i*0x40)))
	}
	got := tb.SearchRegion(0x40000, 5, 128)
	if len(got) != 5 {
		t.Fatalf("region found %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Addr <= got[i-1].Addr {
			t.Fatal("region not sorted")
		}
	}
	capped := tb.SearchRegion(0x40000, 10, 3)
	if len(capped) != 3 {
		t.Errorf("maxBranches not honored: %d", len(capped))
	}
}

func TestOccupancy(t *testing.T) {
	tb := New(testGeo)
	for i := 0; i < 100; i++ {
		tb.Install(info(zarch.Addr(0x10000 + i*0x40)))
	}
	if tb.Occupancy() != 100 {
		t.Errorf("occupancy = %d", tb.Occupancy())
	}
}

func TestInstallLookupProperty(t *testing.T) {
	// Installing then looking up (without interference) always hits and
	// round-trips the payload.
	tb := New(testGeo)
	f := func(raw uint64) bool {
		addr := zarch.Addr(raw&^1 | 0x1000)
		in := info(addr)
		tb.Install(in)
		got, ok := tb.Lookup(addr)
		return ok && got.Target == in.Target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPreloadBasics(t *testing.T) {
	p := NewPreload(4)
	p.Install(info(0x10008))
	p.Install(info(0x10030))
	hits := p.SearchLine(0x10000, 64)
	if len(hits) != 2 || hits[0].Addr != 0x10008 {
		t.Fatalf("BTBP search: %+v", hits)
	}
	got, ok := p.Promote(0x10008)
	if !ok || got.Addr != 0x10008 {
		t.Fatal("Promote failed")
	}
	if _, ok := p.Promote(0x10008); ok {
		t.Error("double Promote")
	}
	if p.Occupancy() != 1 {
		t.Errorf("occupancy = %d", p.Occupancy())
	}
	// A promoted or invalidated slot keeps its packed address; searches
	// must still skip it.
	if hits := p.SearchLine(0x10000, 64); len(hits) != 1 || hits[0].Addr != 0x10030 {
		t.Fatalf("BTBP search after Promote: %+v", hits)
	}
	if !p.Invalidate(0x10030) || p.Invalidate(0x10030) {
		t.Error("Invalidate did not remove exactly once")
	}
	if hits := p.SearchLine(0x10000, 64); len(hits) != 0 {
		t.Errorf("BTBP search after Invalidate: %+v", hits)
	}
}

func TestPreloadLRUReplacement(t *testing.T) {
	p := NewPreload(2)
	p.Install(info(0x100))
	p.Install(info(0x200))
	p.SearchLine(0x100, 64) // no LRU effect, but exercise
	p.Install(info(0x300))  // evicts LRU (0x100)
	if _, ok := p.Promote(0x100); ok {
		t.Error("LRU entry survived")
	}
	if _, ok := p.Promote(0x300); !ok {
		t.Error("new entry missing")
	}
}

func TestPreloadDedup(t *testing.T) {
	p := NewPreload(4)
	p.Install(info(0x100))
	i2 := info(0x100)
	i2.Target = 0x9000
	p.Install(i2)
	if p.Occupancy() != 1 {
		t.Errorf("dup install occupancy = %d", p.Occupancy())
	}
	got, _ := p.Promote(0x100)
	if got.Target != 0x9000 {
		t.Error("dup install did not update payload")
	}
}

func TestStageFIFO(t *testing.T) {
	s := NewStage(3)
	s.Push(info(0x100))
	s.Push(info(0x200))
	s.Push(info(0x300))
	s.Push(info(0x400)) // dropped
	if s.Drops() != 1 || s.Len() != 3 {
		t.Fatalf("drops=%d len=%d", s.Drops(), s.Len())
	}
	got, ok := s.Pop()
	if !ok || got.Addr != 0x100 {
		t.Fatal("FIFO order broken")
	}
	s.Pop()
	s.Pop()
	if _, ok := s.Pop(); ok {
		t.Error("Pop on empty stage")
	}
}

// z15BTB2 is the z15 BTB2 geometry: 32K rows, 1K storage pages.
var z15BTB2 = Geometry{RowBits: 15, Ways: 4, TagBits: 13, LineShift: 6}

// TestUnwrittenRowsReadEmpty checks that every read path over rows no
// Install touched finds nothing, writes nothing and allocates nothing:
// a short run that searches the whole BTB2 must not pay for it.
func TestUnwrittenRowsReadEmpty(t *testing.T) {
	tb := New(z15BTB2)
	line := zarch.Addr(z15BTB2.LineBytes())
	pass := func() {
		for r := 0; r < z15BTB2.Rows(); r++ {
			a := zarch.Addr(0x7000_0000) + zarch.Addr(r)*line
			if hits := tb.SearchLine(a); len(hits) != 0 {
				t.Fatalf("SearchLine(%s) = %d hits", a, len(hits))
			}
			if _, ok := tb.Lookup(a + 8); ok {
				t.Fatalf("Lookup(%s) hit", a+8)
			}
			if tb.Update(a+8, func(*Info) { t.Fatal("Update called fn") }) {
				t.Fatalf("Update(%s) found an entry", a+8)
			}
			if tb.Invalidate(a + 8) {
				t.Fatalf("Invalidate(%s) found an entry", a+8)
			}
			if _, ok := tb.LRUVictim(a); ok {
				t.Fatalf("LRUVictim(%s) named a victim", a)
			}
			if got := tb.SearchRegion(a, 4, 128); len(got) != 0 {
				t.Fatalf("SearchRegion(%s) = %d branches", a, len(got))
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Errorf("read-only pass allocated %.0f times", allocs)
	}
	if n := tb.Occupancy(); n != 0 {
		t.Errorf("Occupancy = %d after reads only", n)
	}
	for i, p := range tb.pages {
		if p != tb.empty {
			t.Fatalf("page %d allocated by reads", i)
		}
	}
	if s := tb.Stats(); s.SearchHits != 0 || s.LookupHits != 0 || s.Invalidates != 0 {
		t.Errorf("reads of empty rows counted hits: %+v", s)
	}
}

// TestPagesIsolated installs into rows of the first, a middle and the
// last page and checks that each lands in its own page, is found only
// there, and leaves the shared empty page all-invalid.
func TestPagesIsolated(t *testing.T) {
	tb := New(z15BTB2)
	stride := zarch.Addr(z15BTB2.Rows() * z15BTB2.LineBytes())
	var want []zarch.Addr
	for _, row := range []int{0, z15BTB2.Rows() / 2, z15BTB2.Rows() - 1} {
		a := 3*stride + zarch.Addr(row*z15BTB2.LineBytes()) + 12
		tb.Install(info(a))
		want = append(want, a)
	}
	if n := tb.Occupancy(); n != len(want) {
		t.Errorf("Occupancy = %d, want %d", n, len(want))
	}
	pages := 0
	for _, p := range tb.pages {
		if p != tb.empty {
			pages++
		}
	}
	if pages != len(want) {
		t.Errorf("%d pages allocated, want %d", pages, len(want))
	}
	for _, v := range tb.empty.valid {
		if v {
			t.Fatal("Install wrote the shared empty page")
		}
	}
	for _, a := range want {
		line := z15BTB2.Line(a)
		hits := tb.SearchLine(line)
		if len(hits) != 1 || hits[0].Addr != a {
			t.Errorf("SearchLine(%s) = %+v, want %s", line, hits, a)
		}
		if _, ok := tb.Lookup(a); !ok {
			t.Errorf("Lookup(%s) missed", a)
		}
		// Same row, other tag; same page, next row.
		if hits := tb.SearchLine(line + stride); len(hits) != 0 {
			t.Errorf("SearchLine(%s) found another tag's branch", line+stride)
		}
		if _, ok := tb.Lookup(a ^ zarch.Addr(z15BTB2.LineBytes())); ok {
			t.Errorf("Lookup of the neighbouring row of %s hit", a)
		}
	}
}

// TestSearchRegionAcrossPages checks that a region scan crossing a
// page boundary, and one wrapping from the last row to row 0, returns
// the installed branches in address order.
func TestSearchRegionAcrossPages(t *testing.T) {
	lb := zarch.Addr(z15BTB2.LineBytes())
	stride := zarch.Addr(z15BTB2.Rows()) * lb
	cases := []struct {
		name string
		from zarch.Addr // first searched line
	}{
		{"page-boundary", 5*stride + (1<<pageRowBits-2)*lb},
		{"wrap", 6*stride - 2*lb},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := New(z15BTB2)
			var want []zarch.Addr
			// Four consecutive lines, installed last line first and
			// two branches per line with the later one first.
			for l := 3; l >= 0; l-- {
				for _, off := range []zarch.Addr{40, 6} {
					a := c.from + zarch.Addr(l)*lb + off
					tb.Install(info(a))
					want = append(want, a)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := tb.SearchRegion(c.from, 4, 128)
			if len(got) != len(want) {
				t.Fatalf("SearchRegion found %d branches, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Addr != want[i] {
					t.Errorf("branch %d = %s, want %s", i, got[i].Addr, want[i])
				}
			}
		})
	}
}
