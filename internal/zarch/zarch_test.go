package zarch

import (
	"testing"
	"testing/quick"
)

func TestLineHelpers(t *testing.T) {
	cases := []struct {
		a, line64 Addr
	}{
		{0, 0},
		{0x3e, 0},
		{0x40, 0x40},
		{0x1234, 0x1200},
		{0xfffffffffffffffe, 0xffffffffffffffc0},
	}
	for _, c := range cases {
		if got := c.a.Line64(); got != c.line64 {
			t.Errorf("Line64(%s) = %s, want %s", c.a, got, c.line64)
		}
	}
}

func TestLine64Properties(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		l := addr.Line64()
		return l&63 == 0 && l <= addr && addr-l < 64 && l+addr&63 == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBranchKindPredicates(t *testing.T) {
	cases := []struct {
		k                            BranchKind
		isBr, cond, ind, staticTaken bool
	}{
		{KindNone, false, false, false, false},
		{KindCondRel, true, true, false, false},
		{KindUncondRel, true, false, false, true},
		{KindCondInd, true, true, true, false},
		{KindUncondInd, true, false, true, true},
		{KindLoop, true, true, false, true},
	}
	for _, c := range cases {
		if got := c.k.IsBranch(); got != c.isBr {
			t.Errorf("%v.IsBranch() = %v, want %v", c.k, got, c.isBr)
		}
		if got := c.k.Conditional(); got != c.cond {
			t.Errorf("%v.Conditional() = %v, want %v", c.k, got, c.cond)
		}
		if got := c.k.Indirect(); got != c.ind {
			t.Errorf("%v.Indirect() = %v, want %v", c.k, got, c.ind)
		}
		if got := c.k.StaticGuessTaken(); got != c.staticTaken {
			t.Errorf("%v.StaticGuessTaken() = %v, want %v", c.k, got, c.staticTaken)
		}
	}
}

func TestInstructionValidate(t *testing.T) {
	good := Instruction{Addr: 0x1000, Len: 4, Kind: KindCondRel}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v, want nil", good, err)
	}
	bad := []Instruction{
		{Addr: 0x1001, Len: 4, Kind: KindNone},        // misaligned
		{Addr: 0x1000, Len: 3, Kind: KindNone},        // bad length
		{Addr: 0x1000, Len: 4, Kind: BranchKind(200)}, // bad kind
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", b)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindLoop.String() != "loop" {
		t.Errorf("KindLoop.String() = %q", KindLoop.String())
	}
	if s := BranchKind(99).String(); s != "BranchKind(99)" {
		t.Errorf("out-of-range String() = %q", s)
	}
}
