package workload

import (
	"testing"

	"zbp/internal/trace"
	"zbp/internal/zarch"
)

// drain pulls n records and validates each.
func drain(t *testing.T, src trace.Source, n int) []trace.Rec {
	t.Helper()
	recs := trace.Take(src, n)
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v (%+v)", i, err, r)
		}
	}
	return recs
}

// checkProgramOrder verifies the fundamental trace invariant: each
// record begins where the previous one said control goes next.
func checkProgramOrder(t *testing.T, recs []trace.Rec) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if recs[i].CtxID != recs[i-1].CtxID {
			continue // context switch may jump anywhere
		}
		if want := recs[i-1].Next(); recs[i].Addr != want {
			t.Fatalf("record %d at %s, want %s (prev %+v)", i, recs[i].Addr, want, recs[i-1])
		}
	}
}

func TestBuilderSimpleLoop(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	headL := b.NewLabel()
	head := b.Block(8)
	b.Bind(headL, head)
	latch := b.Block(4)
	latch.Loop(3, headL)
	tail := b.Block(2)
	tail.Jump(headL)
	p, err := b.Build(head)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(p, 2)
	recs := drain(t, e, 100)
	checkProgramOrder(t, recs)

	// Count loop-branch outcomes: taken twice then not taken, repeating.
	var outcomes []bool
	for _, r := range recs {
		if r.Kind() == zarch.KindLoop {
			outcomes = append(outcomes, r.Taken())
		}
	}
	if len(outcomes) < 6 {
		t.Fatalf("only %d loop outcomes", len(outcomes))
	}
	for i, taken := range outcomes[:6] {
		want := (i+1)%3 != 0
		if taken != want {
			t.Errorf("loop outcome %d = %v, want %v", i, taken, want)
		}
	}
}

func TestBuilderFallthroughGapError(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	blk := b.Block(8) // no branch: needs contiguous successor
	b.Gap(64)
	b.Block(4)
	tail := b.Block(2)
	tail.Jump(BlockRef{b: b, idx: 0})
	if _, err := b.Build(blk); err == nil {
		t.Fatal("Build accepted gapped fallthrough")
	}
}

func TestBuilderUnboundLabel(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	l := b.NewLabel()
	blk := b.Block(4)
	blk.Jump(l)
	if _, err := b.Build(blk); err == nil {
		t.Fatal("Build accepted unbound label")
	}
}

func TestBuilderDoubleBranch(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	blk := b.Block(4)
	blk.Jump(blk)
	blk.Jump(blk)
	if _, err := b.Build(blk); err == nil {
		t.Fatal("Build accepted double branch")
	}
}

func TestBuilderWireNonCurrent(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	first := b.Block(4)
	second := b.Block(4)
	second.Jump(first)
	first.Jump(second) // first is no longer current: must fail
	if _, err := b.Build(first); err == nil {
		t.Fatal("Build accepted branch wired to non-current block")
	}
}

func TestBuilderCursorBackward(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	blk := b.Block(4)
	blk.Jump(blk)
	b.Cursor(0x100)
	if _, err := b.Build(blk); err == nil {
		t.Fatal("Build accepted backward cursor")
	}
}

func TestCallReturnStack(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	fnL := b.NewLabel()
	caller := b.Block(8)
	caller.Call(fnL)
	cont := b.Block(4)
	cont.Jump(caller)
	b.Gap(1 << 17)
	fn := b.Block(6)
	b.Bind(fnL, fn)
	ret := b.Block(2)
	ret.Return()
	p, err := b.Build(caller)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(p, 2)
	recs := drain(t, e, 60)
	checkProgramOrder(t, recs)

	// Every return must target the NSIA of the preceding call.
	var lastCallNSIA zarch.Addr
	returns := 0
	for _, r := range recs {
		if r.Kind() == zarch.KindUncondRel && r.Taken() && r.Target == fn.Addr() {
			lastCallNSIA = r.Addr + zarch.Addr(r.Len())
		}
		if r.Kind() == zarch.KindUncondInd && r.Taken() {
			returns++
			if r.Target != lastCallNSIA {
				t.Fatalf("return to %s, want %s", r.Target, lastCallNSIA)
			}
		}
	}
	if returns < 3 {
		t.Errorf("only %d returns observed", returns)
	}
}

func TestSwitchRoundRobin(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	arms := []Target{b.NewLabel(), b.NewLabel(), b.NewLabel()}
	sw := b.Block(4)
	sw.Switch(arms, ChooseRoundRobin)
	swL := b.NewLabel()
	b.Bind(swL, BlockRef{b: b, idx: 0})
	for _, a := range arms {
		blk := b.Block(4)
		blk.Jump(swL)
		b.Bind(a.(*Label), blk)
	}
	p, err := b.Build(BlockRef{b: b, idx: 0})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(p, 2)
	recs := drain(t, e, 60)
	var targets []zarch.Addr
	for _, r := range recs {
		if r.Kind() == zarch.KindUncondInd {
			targets = append(targets, r.Target)
		}
	}
	if len(targets) < 6 {
		t.Fatal("too few switch executions")
	}
	for i := 3; i < len(targets); i++ {
		if targets[i] != targets[i-3] {
			t.Fatalf("round-robin violated at %d", i)
		}
	}
	if targets[0] == targets[1] {
		t.Error("round-robin did not advance")
	}
}

func TestCondPatternSequence(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	afterL := b.NewLabel()
	blk := b.Block(4)
	blk.CondPattern([]bool{true, false, false}, afterL)
	island := b.Block(4)
	after := b.Block(4)
	b.Bind(afterL, after)
	after.Jump(BlockRef{b: b, idx: 0})
	_ = island
	p, err := b.Build(blk)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(p, 2)
	recs := drain(t, e, 60)
	var outcomes []bool
	for _, r := range recs {
		if r.Kind() == zarch.KindCondRel {
			outcomes = append(outcomes, r.Taken())
		}
	}
	want := []bool{true, false, false, true, false, false}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("pattern outcome %d = %v", i, outcomes[i])
		}
	}
}

func TestCondLagCorrelation(t *testing.T) {
	// A branch whose direction is the outcome of the previous
	// conditional: feed it with an alternating pattern and check.
	b := NewBuilder(0x1000, 1)
	after1L, after2L := b.NewLabel(), b.NewLabel()
	src := b.Block(4)
	src.CondPattern([]bool{true, false}, after1L)
	b.Block(2) // island
	after1 := b.Block(4)
	b.Bind(after1L, after1)
	after1.CondLag(1, after2L)
	b.Block(2) // island
	after2 := b.Block(4)
	b.Bind(after2L, after2)
	after2.Jump(BlockRef{b: b, idx: 0})
	p, err := b.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(p, 2)
	recs := drain(t, e, 200)
	checkProgramOrder(t, recs)
	// Branch pairs: the lag-1 branch must copy the pattern branch.
	var pat, lag []bool
	for _, r := range recs {
		if r.Kind() != zarch.KindCondRel {
			continue
		}
		if r.Addr == after1.Addr()+4 { // after1's branch is after its pads
			lag = append(lag, r.Taken())
		} else {
			pat = append(pat, r.Taken())
		}
	}
	if len(lag) < 10 {
		t.Fatalf("too few lag outcomes: %d", len(lag))
	}
	for i := range lag {
		if lag[i] != pat[i] {
			t.Fatalf("lag outcome %d = %v, want %v", i, lag[i], pat[i])
		}
	}
}

func TestMultiplexInterleavesAndStampsCtx(t *testing.T) {
	s1 := Loops(1)
	s2 := Loops(2)
	m := NewMultiplex([]trace.Source{s1, s2}, 10)
	recs := trace.Take(m, 100)
	if len(recs) != 100 {
		t.Fatalf("got %d records", len(recs))
	}
	for i := 0; i < 10; i++ {
		if recs[i].CtxID != 0 {
			t.Fatalf("record %d ctx %d, want 0", i, recs[i].CtxID)
		}
	}
	for i := 10; i < 20; i++ {
		if recs[i].CtxID != 1 {
			t.Fatalf("record %d ctx %d, want 1", i, recs[i].CtxID)
		}
	}
	checkProgramOrder(t, recs)
}

func TestProgramFootprint(t *testing.T) {
	b := NewBuilder(0x1000, 1)
	blk := b.Block(64)
	blk.Jump(blk)
	p := b.MustBuild(blk)
	if p.Blocks() != 1 {
		t.Errorf("Blocks = %d", p.Blocks())
	}
	if fp := p.Footprint(); fp < 64 || fp > 72 {
		t.Errorf("Footprint = %d", fp)
	}
}

// TestMakeAllocCeiling bounds what constructing the large LSPR
// programs allocates. The program IR keeps pads, targets and labels in
// per-builder columns, so the count tracks the branch closures, not
// one slice per block and branch. The ceilings are a quarter of what a
// per-block layout allocated (65,046 and 193,451 objects).
func TestMakeAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		name    string
		ceiling float64
	}{{"lspr", 16000}, {"lspr-large", 48000}} {
		got := testing.AllocsPerRun(2, func() {
			if _, err := Make(c.name, 1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Make(%q, 1): %.0f allocations", c.name, got)
		if got > c.ceiling {
			t.Errorf("Make(%q, 1) allocates %.0f objects, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
