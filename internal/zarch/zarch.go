// Package zarch models the subset of the z/Architecture instruction set
// that matters to a branch predictor: variable-length CISC instructions
// (2, 4 or 6 bytes), relative branches whose target is an offset from
// the branch's own address, and indirect branches whose target is
// computed late in the back end from base+index+displacement.
//
// The z/Architecture has no true call/return instructions (unlike Power
// or x86); call- and return-like behaviour is an emergent property of
// branch pairs, which is why the z15 call/return stack is a heuristic
// detector rather than an architectural structure (paper §VI).
package zarch

import "fmt"

// Addr is a virtual instruction address. z/Architecture instructions are
// halfword (2-byte) aligned, so the low bit of a valid Addr is zero.
type Addr uint64

// Line64 returns the address of the 64-byte line containing a, the
// granule of one z15 BTB1 search (paper §IV).
func (a Addr) Line64() Addr { return a &^ 63 }

func (a Addr) String() string { return fmt.Sprintf("%#x", uint64(a)) }

// HalfwordAligned reports whether a is a legal instruction address.
func (a Addr) HalfwordAligned() bool { return a&1 == 0 }

// BranchKind classifies the branch behaviour of an instruction.
//
// Relative branches carry their target as a signed halfword offset in
// the instruction text, so the front end can compute the target itself.
// Indirect branches compute their target from registers roughly a dozen
// cycles into the back end (paper §I), which is why an unpredicted
// taken indirect branch stalls the front end.
type BranchKind uint8

const (
	// KindNone marks a non-branch instruction.
	KindNone BranchKind = iota
	// KindCondRel is a conditional relative branch (BRC/BRCL-like).
	KindCondRel
	// KindUncondRel is an unconditional relative branch (BRU/J-like).
	KindUncondRel
	// KindCondInd is a conditional indirect branch (BCR-like with mask).
	KindCondInd
	// KindUncondInd is an unconditional indirect branch (BCR 15 / BR-like).
	KindUncondInd
	// KindLoop is a count-based loop-closing branch (BCT/BRCT-like):
	// taken until its counter reaches zero. Statically guessed taken.
	KindLoop

	numKinds
)

var kindNames = [numKinds]string{
	"none", "cond-rel", "uncond-rel", "cond-ind", "uncond-ind", "loop",
}

func (k BranchKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("BranchKind(%d)", uint8(k))
}

// IsBranch reports whether k denotes any branch instruction.
func (k BranchKind) IsBranch() bool { return k != KindNone && k < numKinds }

// Conditional reports whether the branch may resolve either direction.
func (k BranchKind) Conditional() bool {
	return k == KindCondRel || k == KindCondInd || k == KindLoop
}

// Indirect reports whether the target is register-computed.
func (k BranchKind) Indirect() bool {
	return k == KindCondInd || k == KindUncondInd
}

// StaticGuessTaken returns the IDU's static direction guess for a
// surprise branch of kind k (paper §IV): unconditional branches and
// loop branches are guessed taken; most conditional branches are
// guessed not-taken.
func (k BranchKind) StaticGuessTaken() bool {
	switch k {
	case KindUncondRel, KindUncondInd, KindLoop:
		return true
	default:
		return false
	}
}

// Instruction lengths in bytes. z/Architecture instructions are 2, 4 or
// 6 bytes; the average across commercial code is roughly 5 bytes
// (paper §II.A).
const (
	LenShort = 2
	LenMid   = 4
	LenLong  = 6
)

// ValidLen reports whether n is a legal z/Architecture instruction length.
func ValidLen(n uint8) bool { return n == LenShort || n == LenMid || n == LenLong }

// Instruction is one decoded instruction as seen by the front end.
type Instruction struct {
	Addr Addr
	Len  uint8 // 2, 4 or 6
	Kind BranchKind
}

// Validate checks structural invariants and returns a descriptive error
// for the first violation.
func (i Instruction) Validate() error {
	if !i.Addr.HalfwordAligned() {
		return fmt.Errorf("zarch: instruction address %s not halfword aligned", i.Addr)
	}
	if !ValidLen(i.Len) {
		return fmt.Errorf("zarch: invalid instruction length %d at %s", i.Len, i.Addr)
	}
	if i.Kind >= numKinds {
		return fmt.Errorf("zarch: invalid branch kind %d at %s", uint8(i.Kind), i.Addr)
	}
	return nil
}
