// Package trace defines the instruction-trace format consumed by the
// simulator, mirroring the paper's §VII performance-model methodology:
// "as an input to the performance modeling environment, instruction
// traces of workloads that run on a mainframe system were read."
//
// IBM's LSPR traces are proprietary; the workload package synthesizes
// equivalents (see DESIGN.md §5). This package is only the plumbing: a
// record type, a streaming Source interface, and a compact binary
// file format with delta/varint encoding.
package trace

import (
	"fmt"

	"zbp/internal/zarch"
)

// Rec is one retired instruction. For non-branches only Addr and Len
// are meaningful. For branches, Taken and Target describe the resolved
// (architectural) outcome; CtxID identifies the address space, used for
// CTB tag matching and context-change BTB2 prefetch triggers.
//
// The length, branch kind and taken bit live packed in one Meta byte
// (RecMeta builds it, Len/Kind/Taken unpack it) rather than as three
// named fields. The packing is deliberate and load-bearing for the
// replay fast path: a four-field struct is SSA-able, so the compiler
// keeps records in registers through the cursor loop and drops loads
// of unconsumed columns; at six fields every record round-trips
// through a stack slot, which measured ~4x slower per record. The
// Meta byte is also exactly the packed column Packed stores, so
// packed replay decodes nothing.
type Rec struct {
	Addr   zarch.Addr
	Target zarch.Addr // resolved target; 0 if not taken or not a branch
	Meta   uint8      // packed len/kind/taken; build with RecMeta
	CtxID  uint16
}

// Meta byte layout: the branch kind in the low 3 bits, the taken bit,
// and the instruction length (2/4/6 fits in 3 bits) in bits 4-6.
const (
	metaKindMask uint8 = 0x07
	metaTaken    uint8 = 1 << 3
	metaLenShift       = 4
)

// RecMeta packs an instruction length, branch kind and taken flag
// into Rec's Meta byte.
func RecMeta(length uint8, kind zarch.BranchKind, taken bool) uint8 {
	m := uint8(kind)&metaKindMask | length<<metaLenShift
	if taken {
		m |= metaTaken
	}
	return m
}

// NewRec assembles a record from unpacked fields.
func NewRec(addr zarch.Addr, length uint8, kind zarch.BranchKind, taken bool, target zarch.Addr, ctx uint16) Rec {
	return Rec{Addr: addr, Target: target, Meta: RecMeta(length, kind, taken), CtxID: ctx}
}

// Len returns the instruction length in bytes.
func (r Rec) Len() uint8 { return r.Meta >> metaLenShift }

// Kind returns the branch kind (KindNone for non-branches).
func (r Rec) Kind() zarch.BranchKind { return zarch.BranchKind(r.Meta & metaKindMask) }

// Taken reports whether the branch resolved taken.
func (r Rec) Taken() bool { return r.Meta&metaTaken != 0 }

// IsBranch reports whether the record is a branch instruction.
func (r Rec) IsBranch() bool { return r.Kind().IsBranch() }

// Next returns the address of the next instruction in program order.
func (r Rec) Next() zarch.Addr {
	if r.IsBranch() && r.Taken() {
		return r.Target
	}
	return r.Addr + zarch.Addr(r.Len())
}

// Validate checks structural invariants of a single record.
func (r Rec) Validate() error {
	inst := zarch.Instruction{Addr: r.Addr, Len: r.Len(), Kind: r.Kind()}
	if err := inst.Validate(); err != nil {
		return err
	}
	if !r.IsBranch() && r.Taken() {
		return fmt.Errorf("trace: non-branch at %s marked taken", r.Addr)
	}
	if r.Taken() && !r.Target.HalfwordAligned() {
		return fmt.Errorf("trace: branch at %s has misaligned target %s", r.Addr, r.Target)
	}
	if r.Taken() && r.Target == 0 {
		return fmt.Errorf("trace: taken branch at %s has zero target", r.Addr)
	}
	if !r.Kind().Conditional() && r.IsBranch() && !r.Taken() {
		return fmt.Errorf("trace: unconditional branch at %s resolved not-taken", r.Addr)
	}
	return nil
}

// Source is a stream of trace records. Workload generators implement
// Source directly so arbitrarily long runs need no trace file.
type Source interface {
	// Next returns the next record and true, or a zero Rec and false at
	// end of stream.
	Next() (Rec, bool)
}

// SliceSource adapts an in-memory record slice to a Source.
type SliceSource struct {
	recs []Rec
	pos  int
}

// NewSliceSource returns a Source over recs.
func NewSliceSource(recs []Rec) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Rec, bool) {
	if s.pos >= len(s.recs) {
		return Rec{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Take drains up to n records from src into a slice. The requested
// count only seeds the allocation up to a bound (see maxPreallocRecs):
// a huge n against a short source must not allocate for records that
// never arrive.
func Take(src Source, n int) []Rec {
	pre := n
	if pre > maxPreallocRecs {
		pre = maxPreallocRecs
	}
	out := make([]Rec, 0, pre)
	for len(out) < n {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// Limit wraps src so it yields at most n records.
func Limit(src Source, n int) Source { return &limitSource{src: src, left: n} }

type limitSource struct {
	src  Source
	left int
}

func (l *limitSource) Next() (Rec, bool) {
	if l.left <= 0 {
		return Rec{}, false
	}
	l.left--
	return l.src.Next()
}

// Stats summarizes a trace, mirroring the rules of thumb the paper uses
// to size structures (§II.A: a branch every ~4 instructions, average
// instruction length ~5 bytes, a BTB-installed branch every ~25 bytes).
type Stats struct {
	Instructions int
	Bytes        int
	Branches     int
	Taken        int
	Indirect     int
	Conditional  int
	DistinctBr   int
	Footprint    int // distinct 64B lines touched
	CtxSwitches  int
}

// Collect consumes src (up to max records; max<=0 means unbounded) and
// returns summary statistics.
func Collect(src Source, max int) Stats {
	var st Stats
	lines := map[zarch.Addr]bool{}
	brs := map[zarch.Addr]bool{}
	lastCtx := uint16(0)
	first := true
	for {
		if max > 0 && st.Instructions >= max {
			break
		}
		r, ok := src.Next()
		if !ok {
			break
		}
		st.Instructions++
		st.Bytes += int(r.Len())
		lines[r.Addr.Line64()] = true
		if !first && r.CtxID != lastCtx {
			st.CtxSwitches++
		}
		first = false
		lastCtx = r.CtxID
		if r.IsBranch() {
			st.Branches++
			brs[r.Addr] = true
			if r.Taken() {
				st.Taken++
			}
			if r.Kind().Indirect() {
				st.Indirect++
			}
			if r.Kind().Conditional() {
				st.Conditional++
			}
		}
	}
	st.DistinctBr = len(brs)
	st.Footprint = len(lines)
	return st
}

// AvgInstrLen returns the mean instruction length in bytes.
func (s Stats) AvgInstrLen() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Instructions)
}

// BranchDensity returns instructions per branch.
func (s Stats) BranchDensity() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Branches)
}

// TakenRatio returns the fraction of branches resolved taken.
func (s Stats) TakenRatio() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.Branches)
}
