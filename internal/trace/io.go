package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zbp/internal/zarch"
)

// File format:
//
//	magic "ZBPT" | version u8 | records...
//
// Each record is a flag byte followed by varint fields. Addresses are
// delta-encoded against the previous record's next-sequential address,
// so straight-line code costs ~2 bytes per instruction.
const (
	magic   = "ZBPT"
	version = 1
)

// Flag byte layout.
const (
	flagTaken   = 1 << 3
	flagHasCtx  = 1 << 4
	flagHasAddr = 1 << 5 // address differs from expected sequential
	kindMask    = 0x07   // low 3 bits: BranchKind
	lenShift    = 6      // top 2 bits: length code (0->2, 1->4, 2->6)
)

func lenCode(n uint8) (byte, error) {
	switch n {
	case 2:
		return 0, nil
	case 4:
		return 1, nil
	case 6:
		return 2, nil
	}
	return 0, fmt.Errorf("trace: unencodable instruction length %d", n)
}

func codeLen(c byte) (uint8, error) {
	switch c {
	case 0:
		return 2, nil
	case 1:
		return 4, nil
	case 2:
		return 6, nil
	}
	return 0, fmt.Errorf("trace: invalid length code %d", c)
}

// Writer streams records to an io.Writer in the binary format.
type Writer struct {
	w        *bufio.Writer
	expected zarch.Addr // next sequential address after previous record
	ctx      uint16
	wroteHdr bool
	count    int
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one record.
func (tw *Writer) Write(r Rec) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if !tw.wroteHdr {
		if _, err := tw.w.WriteString(magic); err != nil {
			return err
		}
		if err := tw.w.WriteByte(version); err != nil {
			return err
		}
		tw.wroteHdr = true
	}
	lc, err := lenCode(r.Len())
	if err != nil {
		return err
	}
	flags := byte(r.Kind()) & kindMask
	flags |= lc << lenShift
	if r.Taken() {
		flags |= flagTaken
	}
	if r.CtxID != tw.ctx || tw.count == 0 {
		flags |= flagHasCtx
	}
	if r.Addr != tw.expected || tw.count == 0 {
		flags |= flagHasAddr
	}
	if err := tw.w.WriteByte(flags); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	if flags&flagHasAddr != 0 {
		n := binary.PutUvarint(buf[:], uint64(r.Addr))
		if _, err := tw.w.Write(buf[:n]); err != nil {
			return err
		}
	}
	if flags&flagHasCtx != 0 {
		n := binary.PutUvarint(buf[:], uint64(r.CtxID))
		if _, err := tw.w.Write(buf[:n]); err != nil {
			return err
		}
		tw.ctx = r.CtxID
	}
	if r.Taken() {
		// Targets are usually near the branch; store zig-zag delta.
		d := int64(r.Target) - int64(r.Addr)
		n := binary.PutVarint(buf[:], d)
		if _, err := tw.w.Write(buf[:n]); err != nil {
			return err
		}
	}
	tw.expected = r.Addr + zarch.Addr(r.Len())
	tw.count++
	return nil
}

// Flush writes any buffered data to the underlying writer.
func (tw *Writer) Flush() error {
	if !tw.wroteHdr {
		// An empty trace still gets a valid header.
		if _, err := tw.w.WriteString(magic); err != nil {
			return err
		}
		if err := tw.w.WriteByte(version); err != nil {
			return err
		}
		tw.wroteHdr = true
	}
	return tw.w.Flush()
}

// Reader streams records from the binary format; it implements Source.
type Reader struct {
	r        *bufio.Reader
	expected zarch.Addr
	ctx      uint16
	readHdr  bool
	err      error
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Err returns the first error encountered, excluding clean EOF.
func (tr *Reader) Err() error { return tr.err }

func (tr *Reader) header() error {
	var hdr [5]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != magic {
		return errors.New("trace: bad magic")
	}
	if hdr[4] != version {
		return fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	tr.readHdr = true
	return nil
}

// Next implements Source. On malformed input it records the error
// (see Err) and ends the stream.
func (tr *Reader) Next() (Rec, bool) {
	if tr.err != nil {
		return Rec{}, false
	}
	if !tr.readHdr {
		if err := tr.header(); err != nil {
			tr.err = err
			return Rec{}, false
		}
	}
	flags, err := tr.r.ReadByte()
	if err == io.EOF {
		return Rec{}, false
	}
	if err != nil {
		tr.err = err
		return Rec{}, false
	}
	var rec Rec
	kind := zarch.BranchKind(flags & kindMask)
	n, err := codeLen(flags >> lenShift)
	if err != nil {
		tr.err = err
		return Rec{}, false
	}
	taken := flags&flagTaken != 0
	rec.Meta = RecMeta(n, kind, taken)
	if flags&flagHasAddr != 0 {
		v, err := binary.ReadUvarint(tr.r)
		if err != nil {
			tr.err = fmt.Errorf("trace: reading addr: %w", err)
			return Rec{}, false
		}
		rec.Addr = zarch.Addr(v)
	} else {
		rec.Addr = tr.expected
	}
	if flags&flagHasCtx != 0 {
		v, err := binary.ReadUvarint(tr.r)
		if err != nil {
			tr.err = fmt.Errorf("trace: reading ctx: %w", err)
			return Rec{}, false
		}
		if v > 0xffff {
			// The writer only ever encodes uint16 contexts; a larger
			// value is corruption, not something to silently truncate.
			tr.err = fmt.Errorf("trace: context id %d out of range", v)
			return Rec{}, false
		}
		tr.ctx = uint16(v)
	}
	rec.CtxID = tr.ctx
	if taken {
		d, err := binary.ReadVarint(tr.r)
		if err != nil {
			tr.err = fmt.Errorf("trace: reading target: %w", err)
			return Rec{}, false
		}
		rec.Target = zarch.Addr(int64(rec.Addr) + d)
	}
	if err := rec.Validate(); err != nil {
		tr.err = err
		return Rec{}, false
	}
	tr.expected = rec.Addr + zarch.Addr(n)
	return rec, true
}
