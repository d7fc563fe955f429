package trace

import (
	"bytes"
	"testing"
)

// FuzzPackedRoundTrip pins the packed loader to the hardened streaming
// decoder: LoadPacked must accept exactly the inputs a Reader drains
// without error, yield the identical record sequence, and re-encoding
// the buffer must be a fixed point (load → encode → load → same
// records). Anything the streaming decoder rejects — bad magic,
// truncated varints, invalid length codes, out-of-range context IDs —
// LoadPacked must reject too, returning no buffer.
func FuzzPackedRoundTrip(f *testing.F) {
	valid := validTraceBytes(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("ZBPT\x01"))               // header only: empty trace
	f.Add([]byte("ZBPT\x02"))               // bad version
	f.Add([]byte("XXXX\x01\x00"))           // bad magic
	f.Add(append([]byte("ZBPT\x01"), 0xff)) // invalid length code
	f.Add(valid[:len(valid)-1])             // truncated tail
	f.Add(append(valid, 0x07))              // trailing garbage
	f.Add(append([]byte("ZBPT\x01"), bytes.Repeat([]byte{0xac}, 64)...))
	// Overlong varints (all continuation bytes): the hostile-size class
	// the pre-allocation clamp in grow/Take defends against.
	f.Add(append([]byte("ZBPT\x01\x27"), bytes.Repeat([]byte{0x80}, 32)...))
	f.Add(append([]byte("ZBPT\x01\x27"), bytes.Repeat([]byte{0xff}, 32)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reference pass: what the hardened streaming decoder accepts.
		ref := NewReader(bytes.NewReader(data))
		var recs []Rec
		for {
			r, ok := ref.Next()
			if !ok {
				break
			}
			recs = append(recs, r)
		}

		p, err := LoadPacked(bytes.NewReader(data))
		if refErr := ref.Err(); refErr != nil {
			if err == nil {
				t.Fatalf("LoadPacked accepted input the streaming decoder rejects (%v)", refErr)
			}
			if p != nil {
				t.Fatal("LoadPacked returned a buffer alongside an error")
			}
			return
		}
		if err != nil {
			t.Fatalf("LoadPacked rejected input the streaming decoder accepts: %v", err)
		}
		if p.Len() != len(recs) {
			t.Fatalf("LoadPacked kept %d records, streaming decoder read %d", p.Len(), len(recs))
		}
		branches := 0
		for i, want := range recs {
			if got := p.At(i); got != want {
				t.Fatalf("record %d: packed %+v, streamed %+v", i, got, want)
			}
			if want.IsBranch() {
				branches++
			}
		}
		if got := p.Stats().Branches; got != branches {
			t.Fatalf("Branches = %d, want %d", got, branches)
		}

		// Re-encode and reload: decoded records are already canonical,
		// so the packed form must survive the file format exactly.
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Fatalf("re-encoding a loaded trace: %v", err)
		}
		q, err := LoadPacked(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reloading a re-encoded trace: %v", err)
		}
		if q.Len() != p.Len() {
			t.Fatalf("reload kept %d records, want %d", q.Len(), p.Len())
		}
		for i := 0; i < p.Len(); i++ {
			if q.At(i) != p.At(i) {
				t.Fatalf("record %d changed across encode/load: %+v vs %+v", i, q.At(i), p.At(i))
			}
		}

		// PackRecs over the same slice must agree with the cursor view.
		pr, err := PackRecs(recs)
		if err != nil {
			t.Fatalf("PackRecs rejected validated records: %v", err)
		}
		c, d := p.Cursor(), pr.Cursor()
		for {
			a, okA := c.Next()
			b, okB := d.Next()
			if okA != okB || a != b {
				t.Fatalf("cursor divergence: %+v (%v) vs %+v (%v)", a, okA, b, okB)
			}
			if !okA {
				break
			}
		}
	})
}
