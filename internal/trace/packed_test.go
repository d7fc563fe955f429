package trace

import (
	"bytes"
	"path/filepath"
	"testing"

	"zbp/internal/zarch"
)

// packTestRecs is a small record mix covering every field the meta
// byte packs: all three lengths, taken and not-taken, context IDs.
func packTestRecs() []Rec {
	return []Rec{
		NewRec(0x1000, 4, zarch.KindNone, false, 0, 0),
		NewRec(0x1004, 2, zarch.KindCondRel, true, 0x2000, 0),
		NewRec(0x2000, 6, zarch.KindNone, false, 0, 7),
		NewRec(0x2006, 4, zarch.KindUncondInd, true, 0x3000, 7),
		NewRec(0x3000, 2, zarch.KindLoop, false, 0, 7),
		NewRec(0x3002, 4, zarch.KindCondInd, true, 0x1000, 3),
		NewRec(0x1000, 6, zarch.KindUncondRel, true, 0x1000, 0),
	}
}

func TestPackRecsRoundTrip(t *testing.T) {
	recs := packTestRecs()
	p, err := PackRecs(recs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(recs))
	}
	wantBranches := 0
	for i, r := range recs {
		if got := p.At(i); got != r {
			t.Errorf("At(%d) = %+v, want %+v", i, got, r)
		}
		if r.IsBranch() {
			wantBranches++
		}
	}
	if p.Branches() != wantBranches {
		t.Errorf("Branches = %d, want %d", p.Branches(), wantBranches)
	}
	if p.SizeBytes() < p.Len()*19 {
		t.Errorf("SizeBytes = %d, implausibly small for %d records", p.SizeBytes(), p.Len())
	}
}

func TestPackRejectsInvalid(t *testing.T) {
	bad := []Rec{
		NewRec(0x1000, 3, zarch.KindNone, false, 0, 0),      // odd length
		NewRec(0x1000, 4, zarch.BranchKind(6), false, 0, 0), // out-of-range kind
		NewRec(0x1000, 4, zarch.KindCondRel, true, 0, 0),    // taken without target
	}
	for i, r := range bad {
		if _, err := PackRecs([]Rec{r}); err == nil {
			t.Errorf("case %d: PackRecs accepted invalid record %+v", i, r)
		}
	}
}

func TestPackMaxBound(t *testing.T) {
	recs := packTestRecs()
	p, err := Pack(&sliceSource{recs: recs}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("Pack with max=3 kept %d records", p.Len())
	}
	for i := 0; i < 3; i++ {
		if p.At(i) != recs[i] {
			t.Fatalf("At(%d) = %+v, want %+v", i, p.At(i), recs[i])
		}
	}
}

// sliceSource replays a record slice through the Source interface.
type sliceSource struct {
	recs []Rec
	pos  int
}

func (s *sliceSource) Next() (Rec, bool) {
	if s.pos >= len(s.recs) {
		return Rec{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

func TestCursorSemantics(t *testing.T) {
	recs := packTestRecs()
	p, err := PackRecs(recs)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("full drain and reset", func(t *testing.T) {
		c := p.Cursor()
		for pass := 0; pass < 2; pass++ {
			if c.Remaining() != len(recs) {
				t.Fatalf("pass %d: Remaining = %d, want %d", pass, c.Remaining(), len(recs))
			}
			for i := range recs {
				r, ok := c.Next()
				if !ok || r != recs[i] {
					t.Fatalf("pass %d: record %d = %+v ok=%v, want %+v", pass, i, r, ok, recs[i])
				}
			}
			if _, ok := c.Next(); ok {
				t.Fatalf("pass %d: Next returned a record past the end", pass)
			}
			c.Reset()
		}
	})

	t.Run("limit survives reset", func(t *testing.T) {
		c := p.CursorN(2)
		for pass := 0; pass < 2; pass++ {
			n := 0
			for {
				if _, ok := c.Next(); !ok {
					break
				}
				n++
			}
			if n != 2 {
				t.Fatalf("pass %d: limited cursor yielded %d records, want 2", pass, n)
			}
			c.Reset()
		}
	})

	t.Run("limit edge cases", func(t *testing.T) {
		c := p.CursorN(-5)
		if _, ok := c.Next(); ok {
			t.Error("negative limit yielded a record")
		}
		c = p.CursorN(0)
		if _, ok := c.Next(); ok {
			t.Error("zero limit yielded a record")
		}
		// A limit beyond the buffer leaves the natural end in place.
		c = p.CursorN(len(recs) + 100)
		if c.Remaining() != len(recs) {
			t.Errorf("oversized limit: Remaining = %d, want %d", c.Remaining(), len(recs))
		}
		// Limit is relative to the current position.
		c = p.Cursor()
		c.Next()
		c.Limit(2)
		if c.Remaining() != 2 {
			t.Errorf("mid-stream limit: Remaining = %d, want 2", c.Remaining())
		}
	})

	t.Run("independent cursors", func(t *testing.T) {
		a, b := p.Cursor(), p.Cursor()
		a.Next()
		a.Next()
		if b.Remaining() != len(recs) {
			t.Errorf("advancing one cursor moved another: Remaining = %d", b.Remaining())
		}
	})
}

func TestPackedFileRoundTrip(t *testing.T) {
	recs := packTestRecs()
	p, err := PackRecs(recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trip.zbpt")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPackedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != p.Len() {
		t.Fatalf("loaded %d records, wrote %d", q.Len(), p.Len())
	}
	for i := 0; i < p.Len(); i++ {
		// The codec canonicalizes: Target is only encoded for taken
		// branches, so compare in canonical form.
		if got, want := q.At(i), canonical(p.At(i)); got != want {
			t.Errorf("record %d: loaded %+v, wrote %+v", i, got, want)
		}
	}
	if q.Branches() != p.Branches() {
		t.Errorf("loaded Branches = %d, want %d", q.Branches(), p.Branches())
	}
}

func TestLoadPackedRejectsCorruptInput(t *testing.T) {
	valid := validTraceBytes(t)
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("XXXX\x01\x00"),
		"bad version":      []byte("ZBPT\x02"),
		"truncated tail":   valid[:len(valid)-1],
		"trailing garbage": append(append([]byte{}, valid...), 0xff),
	}
	for name, data := range cases {
		if _, err := LoadPacked(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: LoadPacked accepted corrupt input", name)
		}
	}
	if _, err := LoadPacked(bytes.NewReader(valid)); err != nil {
		t.Errorf("LoadPacked rejected valid input: %v", err)
	}
}

func TestCursorZeroAlloc(t *testing.T) {
	p, err := PackRecs(packTestRecs())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c := p.Cursor()
		for {
			if _, ok := c.Next(); !ok {
				break
			}
		}
		c.Reset()
		c.Limit(3)
	})
	if allocs != 0 {
		t.Errorf("cursor create/drain/reset allocated %.1f times per run, want 0", allocs)
	}
}
