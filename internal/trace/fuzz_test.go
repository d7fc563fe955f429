package trace

import (
	"bytes"
	"testing"

	"zbp/internal/zarch"
)

// validTraceBytes encodes a small representative record mix for the
// fuzz corpus.
func validTraceBytes(t testing.TB) []byte {
	recs := []Rec{
		NewRec(0x1000, 4, zarch.KindNone, false, 0, 0),
		NewRec(0x1004, 2, zarch.KindCondRel, true, 0x2000, 0),
		NewRec(0x2000, 6, zarch.KindNone, false, 0, 7),
		NewRec(0x2006, 4, zarch.KindUncondInd, true, 0x1000, 7),
		NewRec(0x1000, 4, zarch.KindCondRel, false, 0, 0),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("seed corpus write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTrace feeds arbitrary bytes to the decoder. The contract on
// corrupt input is graceful: Next ends the stream and records an error
// via Err — never a panic, never unbounded memory (the decoder holds
// no input-sized buffers), and every record that IS returned passes
// Validate.
func FuzzReadTrace(f *testing.F) {
	valid := validTraceBytes(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("ZBPT"))                   // truncated header
	f.Add([]byte("ZBPT\x02"))               // bad version
	f.Add([]byte("XXXX\x01\x00"))           // bad magic
	f.Add(append([]byte("ZBPT\x01"), 0xff)) // invalid length code
	f.Add(append([]byte("ZBPT\x01"), 0x27)) // flags then truncated varints
	f.Add(valid[:len(valid)-1])             // truncated tail
	f.Add(append(valid, 0x07))              // trailing garbage kind
	f.Add(append([]byte("ZBPT\x01"), bytes.Repeat([]byte{0xac}, 64)...))
	// Overlong varint: nothing but continuation bytes, the shape that
	// drives decoded sizes toward 2^64 and used to trigger unbounded
	// count-trusting pre-allocation downstream.
	f.Add(append([]byte("ZBPT\x01\x27"), bytes.Repeat([]byte{0x80}, 32)...))
	f.Add(append([]byte("ZBPT\x01\x27"), bytes.Repeat([]byte{0xff}, 32)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		n := 0
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			if err := rec.Validate(); err != nil {
				t.Fatalf("decoder returned invalid record %+v: %v", rec, err)
			}
			n++
			// Every encoded record costs at least one flag byte, so the
			// record count is bounded by the input length; more means
			// the decoder invented records.
			if n > len(data) {
				t.Fatalf("decoded %d records from %d bytes", n, len(data))
			}
		}
		// After end-of-stream the reader must stay ended.
		if _, ok := r.Next(); ok {
			t.Fatal("Next returned a record after end of stream")
		}
	})
}

// canonical maps a record to the form the codec is specified to
// preserve: Target is only meaningful (and only encoded) for taken
// branches.
func canonical(r Rec) Rec {
	if !r.Taken() {
		r.Target = 0
	}
	return r
}

// FuzzRecordRoundTrip drives arbitrary field values through
// Write+Read: every record the writer accepts must come back
// identical (in canonical form), at any position in a stream — the
// delta/varint encoding state must never corrupt a later record.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x2000), uint8(4), uint8(1), true, uint16(0))
	f.Add(uint64(0), uint64(0), uint8(2), uint8(0), false, uint16(9))
	f.Add(uint64(1<<63), uint64(2), uint8(6), uint8(4), true, uint16(65535))
	f.Add(uint64(0xfffffffffffffffe), uint64(2), uint8(2), uint8(2), true, uint16(1))
	f.Fuzz(func(t *testing.T, addr, target uint64, length, kind uint8, taken bool, ctx uint16) {
		// RecMeta truncates out-of-range kinds and lengths into the
		// packed byte; the round-trip property is stated over what the
		// record actually holds, so build first, then test.
		rec := NewRec(zarch.Addr(addr), length, zarch.BranchKind(kind), taken, zarch.Addr(target), ctx)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(rec); err != nil {
			// The writer rejects invalid records; nothing to round-trip.
			// It must reject exactly what Validate rejects (plus the
			// unencodable-length check, which Validate covers too).
			if rec.Validate() == nil {
				t.Fatalf("writer rejected a valid record %+v: %v", rec, err)
			}
			return
		}
		// Append a fixed tail record so decode state after rec is also
		// exercised (delta base, sticky context).
		tail := NewRec(rec.Next(), 4, zarch.KindNone, false, 0, ctx)
		if tail.Validate() == nil {
			if err := w.Write(tail); err != nil {
				t.Fatalf("writing tail: %v", err)
			}
		} else {
			tail = Rec{}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		r := NewReader(&buf)
		got, ok := r.Next()
		if !ok {
			t.Fatalf("decoder rejected a written record: %v", r.Err())
		}
		if got != canonical(rec) {
			t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", canonical(rec), got)
		}
		if tail != (Rec{}) {
			got2, ok := r.Next()
			if !ok {
				t.Fatalf("decoder rejected tail after %+v: %v", rec, r.Err())
			}
			if got2 != canonical(tail) {
				t.Fatalf("tail mismatch after %+v:\nwrote %+v\nread  %+v", rec, canonical(tail), got2)
			}
		}
		if _, ok := r.Next(); ok {
			t.Fatal("unexpected extra record")
		}
		if r.Err() != nil {
			t.Fatalf("reader error after clean stream: %v", r.Err())
		}
	})
}
