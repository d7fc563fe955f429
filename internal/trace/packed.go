package trace

import (
	"fmt"
	"io"
	"os"

	"zbp/internal/zarch"
)

// Packed is an immutable, pre-validated, fully materialized trace held
// in flat columnar arrays (struct-of-arrays): one contiguous slice per
// field plus a one-byte packed code for kind/taken/length. It is the
// materialize-once, replay-many form of a trace: sweep campaigns (the
// E1..E12 experiments, §VII tuning studies, benchmarks) build a
// workload a single time and fan any number of read-only Cursors out
// across concurrent simulations, paying neither regeneration nor
// per-record decode for the replays.
//
// A Packed buffer is never mutated after Pack/LoadPacked returns, so
// cursor replay is lock-free and safe from any number of goroutines.
type Packed struct {
	addr []zarch.Addr
	tgt  []zarch.Addr
	ctx  []uint16
	meta []uint8
}

// The meta column stores Rec.Meta verbatim (the RecMeta byte layout),
// so packing and replay involve no per-record encode or decode.

// grow pre-sizes every column for n more records.
// maxPreallocRecs caps speculative pre-allocation driven by
// caller-declared record counts. The count is a promise, not data the
// buffer has seen: Pack(r, 1<<40) from an attacker-controlled size
// field must not commit terabytes up front. Beyond the cap, append's
// geometric growth takes over and allocation tracks records actually
// decoded.
const maxPreallocRecs = 1 << 16

func (p *Packed) grow(n int) {
	if n <= 0 {
		return
	}
	if n > maxPreallocRecs {
		n = maxPreallocRecs
	}
	p.addr = append(make([]zarch.Addr, 0, len(p.addr)+n), p.addr...)
	p.tgt = append(make([]zarch.Addr, 0, len(p.tgt)+n), p.tgt...)
	p.ctx = append(make([]uint16, 0, len(p.ctx)+n), p.ctx...)
	p.meta = append(make([]uint8, 0, len(p.meta)+n), p.meta...)
}

// appendRec validates r and appends it to the columns.
func (p *Packed) appendRec(r Rec) error {
	if err := r.Validate(); err != nil {
		return err
	}
	p.addr = append(p.addr, r.Addr)
	p.tgt = append(p.tgt, r.Target)
	p.ctx = append(p.ctx, r.CtxID)
	p.meta = append(p.meta, r.Meta)
	return nil
}

// Pack drains up to max records from src (max <= 0 means until the
// source is exhausted) into a Packed buffer, validating every record
// once so replays never have to.
func Pack(src Source, max int) (*Packed, error) {
	p := &Packed{}
	p.grow(max)
	for max <= 0 || len(p.meta) < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		if err := p.appendRec(r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// PackRecs packs an in-memory record slice, validating every record.
func PackRecs(recs []Rec) (*Packed, error) {
	p := &Packed{}
	p.grow(len(recs))
	for _, r := range recs {
		if err := p.appendRec(r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Len returns the number of records in the buffer.
func (p *Packed) Len() int { return len(p.meta) }

// SizeBytes returns the heap footprint of the columns, for capacity
// planning when many workloads are materialized at once.
func (p *Packed) SizeBytes() int {
	return cap(p.addr)*8 + cap(p.tgt)*8 + cap(p.ctx)*2 + cap(p.meta)
}

// At returns record i, reassembled from the columns. It performs no
// validation: every record was validated when packed.
func (p *Packed) At(i int) Rec {
	return Rec{
		Addr:   p.addr[i],
		Target: p.tgt[i],
		Meta:   p.meta[i],
		CtxID:  p.ctx[i],
	}
}

// Stats summarizes the packed trace (one sequential pass).
func (p *Packed) Stats() Stats {
	c := p.Cursor()
	return Collect(&c, 0)
}

// Cursor returns a value-type iterator positioned at the first record.
// Take its address to use it as a Source. Creating, copying and
// resetting cursors never allocates; any number of cursors replay the
// same buffer concurrently.
func (p *Packed) Cursor() Cursor {
	return Cursor{addr: p.addr, tgt: p.tgt, ctx: p.ctx, meta: p.meta, end: len(p.meta)}
}

// CursorN returns a cursor over at most the first n records.
func (p *Packed) CursorN(n int) Cursor {
	c := p.Cursor()
	c.Limit(n)
	return c
}

// Cursor is an O(1) iterator over a Packed buffer: the column slice
// headers plus a position and a bound. Holding the slices directly
// (rather than a *Packed) keeps the per-record path to single-level
// indexed loads. It implements Source on its pointer receiver.
type Cursor struct {
	addr []zarch.Addr
	tgt  []zarch.Addr
	ctx  []uint16
	meta []uint8
	pos  int
	end  int
}

// Limit bounds the cursor to at most n further records, replacing the
// Limit wrapper for packed replays (no extra interface hop per
// record). A negative n is treated as zero.
func (c *Cursor) Limit(n int) {
	if n < 0 {
		n = 0
	}
	if end := c.pos + n; end >= 0 && end < c.end {
		c.end = end
	}
}

// Next implements Source. With Rec at four fields the compiler keeps
// the returned record in registers when Next is inlined into a replay
// loop, and the Meta byte is stored verbatim, so the per-record cost
// is four indexed loads and a position bump.
func (c *Cursor) Next() (Rec, bool) {
	i := c.pos
	if i >= c.end || i >= len(c.meta) {
		return Rec{}, false
	}
	c.pos = i + 1
	return Rec{
		Addr:   c.addr[i],
		Target: c.tgt[i],
		Meta:   c.meta[i],
		CtxID:  c.ctx[i],
	}, true
}

// Reset rewinds to the first record, keeping any Limit applied before
// iteration started.
func (c *Cursor) Reset() { c.pos = 0 }

// Remaining returns how many records the cursor will still yield.
func (c *Cursor) Remaining() int { return c.end - c.pos }

// Encode streams the packed trace to w in the binary trace file
// format (the same bytes a Writer fed the individual records would
// produce).
func (p *Packed) Encode(w io.Writer) error {
	tw := NewWriter(w)
	for i := 0; i < p.Len(); i++ {
		if err := tw.Write(p.At(i)); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// WriteFile encodes the packed trace into the file at path.
func (p *Packed) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadPacked decodes an entire binary trace from r into a Packed
// buffer in a single sequential pass. Decoding is strict: any
// malformed input the hardened Reader rejects makes LoadPacked return
// that error and no buffer.
func LoadPacked(r io.Reader) (*Packed, error) {
	tr := NewReader(r)
	p, err := Pack(tr, 0)
	if err != nil {
		return nil, err
	}
	if err := tr.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadPackedFile reads the trace file at path into a Packed buffer.
func LoadPackedFile(path string) (*Packed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := LoadPacked(f)
	if err != nil {
		return nil, fmt.Errorf("trace: loading %s: %w", path, err)
	}
	return p, nil
}
