package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"zbp/internal/hashx"
	"zbp/internal/zarch"
)

func mkRec(addr uint64, ln uint8, kind zarch.BranchKind, taken bool, tgt uint64) Rec {
	return NewRec(zarch.Addr(addr), ln, kind, taken, zarch.Addr(tgt), 0)
}

func TestRecNext(t *testing.T) {
	r := mkRec(0x100, 4, zarch.KindNone, false, 0)
	if r.Next() != 0x104 {
		t.Errorf("sequential Next = %s", r.Next())
	}
	b := mkRec(0x100, 4, zarch.KindCondRel, true, 0x200)
	if b.Next() != 0x200 {
		t.Errorf("taken Next = %s", b.Next())
	}
	nt := mkRec(0x100, 6, zarch.KindCondRel, false, 0)
	if nt.Next() != 0x106 {
		t.Errorf("not-taken Next = %s", nt.Next())
	}
}

func TestRecValidate(t *testing.T) {
	good := []Rec{
		mkRec(0x100, 4, zarch.KindNone, false, 0),
		mkRec(0x100, 4, zarch.KindCondRel, true, 0x200),
		mkRec(0x100, 2, zarch.KindUncondInd, true, 0x4000),
		mkRec(0x100, 4, zarch.KindCondRel, false, 0),
	}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", r, err)
		}
	}
	bad := []Rec{
		mkRec(0x101, 4, zarch.KindNone, false, 0),       // misaligned
		mkRec(0x100, 5, zarch.KindNone, false, 0),       // bad len
		mkRec(0x100, 4, zarch.KindNone, true, 0x200),    // non-branch taken
		mkRec(0x100, 4, zarch.KindCondRel, true, 0x201), // misaligned target
		mkRec(0x100, 4, zarch.KindCondRel, true, 0),     // zero target
		mkRec(0x100, 4, zarch.KindUncondRel, false, 0),  // uncond not-taken
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", r)
		}
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Rec{
		mkRec(0x100, 4, zarch.KindNone, false, 0),
		mkRec(0x104, 2, zarch.KindCondRel, true, 0x100),
	}
	s := NewSliceSource(recs)
	got := Take(s, 10)
	if len(got) != 2 || got[0].Addr != 0x100 || got[1].Addr != 0x104 {
		t.Fatalf("Take = %+v", got)
	}
	if _, ok := s.Next(); ok {
		t.Error("source not exhausted")
	}
}

func TestLimit(t *testing.T) {
	recs := make([]Rec, 10)
	for i := range recs {
		recs[i] = mkRec(uint64(0x100+4*i), 4, zarch.KindNone, false, 0)
	}
	got := Take(Limit(NewSliceSource(recs), 3), 100)
	if len(got) != 3 {
		t.Fatalf("Limit yielded %d records", len(got))
	}
}

// synthRecs builds a random but structurally valid instruction stream.
func synthRecs(seed uint64, n int) []Rec {
	r := hashx.New(seed)
	recs := make([]Rec, 0, n)
	addr := zarch.Addr(0x10000)
	ctx := uint16(0)
	lens := []uint8{2, 4, 6}
	for i := 0; i < n; i++ {
		ln := lens[r.Intn(3)]
		var rec Rec
		if r.Bool(0.25) {
			kinds := []zarch.BranchKind{
				zarch.KindCondRel, zarch.KindUncondRel, zarch.KindCondInd,
				zarch.KindUncondInd, zarch.KindLoop,
			}
			k := kinds[r.Intn(len(kinds))]
			taken := !k.Conditional() || r.Bool(0.6)
			var tgt zarch.Addr
			if taken {
				// Mix of near and far targets, always halfword aligned, nonzero.
				delta := int64(r.Intn(8192))*2 - 8192
				tgt = zarch.Addr(int64(addr) + delta)
				if tgt == 0 {
					tgt = 0x40
				}
			}
			rec = NewRec(addr, ln, k, taken, tgt, ctx)
		} else {
			rec = NewRec(addr, ln, 0, false, 0, ctx)
		}
		recs = append(recs, rec)
		addr = rec.Next()
		if r.Bool(0.001) {
			ctx++
		}
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	recs := synthRecs(1, 5000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(recs) {
		t.Errorf("writer Count = %d", w.Count())
	}
	rd := NewReader(&buf)
	got := Take(rd, len(recs)+10)
	if err := rd.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip: %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		recs := synthRecs(seed, 300)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		rd := NewReader(&buf)
		got := Take(rd, 400)
		if rd.Err() != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(&buf)
	if _, ok := rd.Next(); ok {
		t.Error("empty trace yielded a record")
	}
	if rd.Err() != nil {
		t.Errorf("empty trace error: %v", rd.Err())
	}
}

func TestBadMagic(t *testing.T) {
	rd := NewReader(bytes.NewBufferString("NOPE\x01"))
	if _, ok := rd.Next(); ok {
		t.Error("bad magic accepted")
	}
	if rd.Err() == nil {
		t.Error("bad magic produced no error")
	}
}

func TestTruncated(t *testing.T) {
	recs := synthRecs(3, 100)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	rd := NewReader(bytes.NewReader(cut))
	got := Take(rd, 200)
	if len(got) >= 100 {
		t.Errorf("truncated trace yielded %d records", len(got))
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Write(mkRec(0x101, 4, zarch.KindNone, false, 0)); err == nil {
		t.Error("Write accepted misaligned record")
	}
}

func TestCompactEncoding(t *testing.T) {
	// Straight-line code should cost little more than 1 byte/record.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	addr := zarch.Addr(0x1000)
	n := 10000
	for i := 0; i < n; i++ {
		r := Rec{Addr: addr, Meta: RecMeta(4, 0, false)}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		addr = r.Next()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if perRec := float64(buf.Len()) / float64(n); perRec > 1.2 {
		t.Errorf("sequential encoding cost %.2f bytes/record", perRec)
	}
}

func TestCollectStats(t *testing.T) {
	recs := []Rec{
		mkRec(0x100, 4, zarch.KindNone, false, 0),
		mkRec(0x104, 2, zarch.KindCondRel, true, 0x100),
		mkRec(0x100, 4, zarch.KindNone, false, 0),
		mkRec(0x104, 2, zarch.KindCondRel, false, 0),
		mkRec(0x106, 6, zarch.KindUncondInd, true, 0x4000),
	}
	st := Collect(NewSliceSource(recs), 0)
	if st.Instructions != 5 || st.Branches != 3 || st.Taken != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Indirect != 1 || st.Conditional != 2 {
		t.Errorf("kind stats = %+v", st)
	}
	if st.DistinctBr != 2 {
		t.Errorf("DistinctBr = %d", st.DistinctBr)
	}
	if st.Footprint != 1 { // all instruction addrs fall in line 0x100
		t.Errorf("Footprint = %d", st.Footprint)
	}
	if st.AvgInstrLen() <= 0 || st.BranchDensity() <= 0 || st.TakenRatio() <= 0 {
		t.Error("derived stats not positive")
	}
	empty := Collect(NewSliceSource(nil), 0)
	if empty.AvgInstrLen() != 0 || empty.BranchDensity() != 0 || empty.TakenRatio() != 0 {
		t.Error("empty stats not zero")
	}
}

func TestCollectMax(t *testing.T) {
	recs := synthRecs(5, 1000)
	st := Collect(NewSliceSource(recs), 100)
	if st.Instructions != 100 {
		t.Errorf("Collect max: %d", st.Instructions)
	}
}
