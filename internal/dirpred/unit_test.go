package dirpred

import (
	"testing"

	"zbp/internal/history"
	"zbp/internal/sat"
	"zbp/internal/zarch"
)

func z15Unit() *Unit { return New(DefaultZ15()) }

func in(addr zarch.Addr, g history.GPV, seq uint64, bht sat.Counter2, bidir bool) Input {
	return Input{
		Addr: addr, Way: 0, GPV: g, Seq: seq,
		Conditional: true, Bidirectional: bidir, BHT: bht, AllowAux: true,
	}
}

func TestUnconditionalAlwaysTaken(t *testing.T) {
	u := z15Unit()
	sel := u.Select(Input{Addr: 0x1000, Conditional: false, AllowAux: true})
	if !sel.Taken || sel.Provider != ProvNone {
		t.Fatalf("unconditional: %+v", sel)
	}
}

func TestBHTProviderWhenNotBidirectional(t *testing.T) {
	u := z15Unit()
	g := history.New(17)
	sel := u.Select(in(0x1000, g, 1, sat.StrongT, false))
	if sel.Provider != ProvBHT || !sel.Taken {
		t.Fatalf("strong-taken BHT: %+v", sel)
	}
	sel = u.Select(in(0x1000, g, 2, sat.StrongNT, false))
	if sel.Provider != ProvBHT || sel.Taken {
		t.Fatalf("strong-NT BHT: %+v", sel)
	}
}

func TestSBHTStrengthensWeakPrediction(t *testing.T) {
	u := z15Unit()
	g := history.New(17)
	// First weak prediction installs an SBHT entry...
	s1 := u.Select(in(0x1000, g, 1, sat.WeakT, false))
	if s1.Provider != ProvBHT || !s1.Taken {
		t.Fatalf("first weak: %+v", s1)
	}
	// ...the next in-flight instance sees the override.
	s2 := u.Select(in(0x1000, g, 2, sat.WeakT, false))
	if s2.Provider != ProvSBHT || !s2.Taken {
		t.Fatalf("second weak: %+v", s2)
	}
	// Completion of the installer removes the entry.
	u.Resolve(s1, true)
	s3 := u.Select(in(0x1000, g, 3, sat.WeakT, false))
	if s3.Provider != ProvSBHT {
		// s2's own weak-install may still be live; complete it too.
		u.Resolve(s2, true)
		s3 = u.Select(in(0x1000, g, 4, sat.WeakT, false))
		_ = s3
	}
}

func TestSBHTFlush(t *testing.T) {
	u := z15Unit()
	g := history.New(17)
	u.Select(in(0x1000, g, 5, sat.WeakT, false))
	u.Flush(5)
	sel := u.Select(in(0x1000, g, 6, sat.WeakT, false))
	if sel.Provider != ProvBHT {
		t.Fatalf("flushed SBHT still overriding: %+v", sel)
	}
}

func TestAuxGatedByBidirectional(t *testing.T) {
	u := z15Unit()
	g := history.New(17)
	addr := zarch.Addr(0x2000)
	// Mispredict installs PHT entries only when resolution happens; but
	// even with installed entries, non-bidirectional branches must not
	// consult the PHT.
	sel := u.Select(in(addr, g, 1, sat.StrongNT, false))
	u.Resolve(sel, true) // mispredict -> PHT/perceptron install attempts
	sel2 := u.Select(in(addr, g, 2, sat.StrongNT, false))
	if sel2.Provider != ProvBHT {
		t.Fatalf("non-bidirectional consulted aux: %v", sel2.Provider)
	}
	// Bidirectional allows the PHT hit to provide.
	sel3 := u.Select(in(addr, g, 3, sat.StrongNT, true))
	if sel3.Provider != ProvPHTShort && sel3.Provider != ProvPHTLong {
		t.Fatalf("bidirectional did not consult PHT: %v", sel3.Provider)
	}
	if !sel3.Taken {
		t.Error("PHT entry should predict the corrected direction (taken)")
	}
}

func TestAllowAuxFalseForcesBHT(t *testing.T) {
	u := z15Unit()
	g := history.New(17)
	addr := zarch.Addr(0x2000)
	sel := u.Select(in(addr, g, 1, sat.StrongNT, true))
	u.Resolve(sel, true)
	i := in(addr, g, 2, sat.StrongNT, true)
	i.AllowAux = false
	sel2 := u.Select(i)
	if sel2.Provider != ProvBHT {
		t.Fatalf("powered-down aux still provided: %v", sel2.Provider)
	}
}

// trainPattern drives the unit through a repeating direction sequence
// on one branch, mimicking the predict-resolve loop, and returns the
// accuracy over the last half.
func trainPattern(u *Unit, addr zarch.Addr, pattern []bool, iters int) float64 {
	g := history.New(17)
	bht := sat.WeakT
	correct, total := 0, 0
	seq := uint64(0)
	for it := 0; it < iters; it++ {
		for _, taken := range pattern {
			seq++
			sel := u.Select(in(addr, g, seq, bht, true))
			if it >= iters/2 {
				total++
				if sel.Taken == taken {
					correct++
				}
			}
			u.Resolve(sel, taken)
			bht = bht.Update(taken)
			if taken {
				g = g.Push(addr)
			}
		}
		// A second branch's taken outcome keeps the GPV moving even in
		// all-not-taken stretches.
		g = g.Push(addr + 0x40)
	}
	return float64(correct) / float64(total)
}

func TestPHTLearnsPattern(t *testing.T) {
	u := z15Unit()
	// Period-3 pattern is hopeless for a 2-bit BHT but trivial for a
	// history-indexed PHT.
	acc := trainPattern(u, 0x3000, []bool{true, true, false}, 300)
	if acc < 0.95 {
		t.Errorf("PHT accuracy on T-T-N pattern = %.3f, want >= 0.95", acc)
	}
	if u.Stats().PHTInstalls == 0 {
		t.Error("no PHT installs recorded")
	}
}

func TestBHTAloneFailsPattern(t *testing.T) {
	cfg := DefaultZ15()
	cfg.PHTEnabled = false
	cfg.PerceptronEnabled = false
	u := New(cfg)
	acc := trainPattern(u, 0x3000, []bool{true, true, false}, 300)
	if acc > 0.9 {
		t.Errorf("BHT-only accuracy on T-T-N = %.3f, expected poor", acc)
	}
}

func TestSingleTableConfig(t *testing.T) {
	cfg := DefaultZ15()
	cfg.TwoTables = false
	u := New(cfg)
	acc := trainPattern(u, 0x3000, []bool{true, false}, 300)
	if acc < 0.9 {
		t.Errorf("single-PHT accuracy on T-N = %.3f", acc)
	}
	// Long-table provider must never appear.
	if u.Stats().Issued[ProvPHTLong] != 0 {
		t.Error("single-table config issued long-table predictions")
	}
}

func TestProviderStatsAccumulate(t *testing.T) {
	u := z15Unit()
	trainPattern(u, 0x4000, []bool{true, true, false}, 100)
	st := u.Stats()
	var issued int64
	for _, v := range st.Issued {
		issued += v
	}
	if issued == 0 {
		t.Fatal("no issued stats")
	}
	if st.Issued[ProvBHT]+st.Issued[ProvSBHT] == 0 {
		t.Error("BHT never issued")
	}
}

func TestPerceptronLearnsSparseLag(t *testing.T) {
	// Direction = GPV parity-ish signal: taken iff a specific past
	// branch was pushed. Construct: branch B's direction equals whether
	// branch A (address X) was taken 1 step ago. Encode via GPV pushes.
	u := z15Unit()
	g := history.New(17)
	addrA, addrB := zarch.Addr(0x5000), zarch.Addr(0x5100)
	bht := sat.WeakT
	seq := uint64(0)
	correct, total := 0, 0
	rngState := uint64(12345)
	for it := 0; it < 4000; it++ {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		aTaken := rngState>>62&1 == 1
		if aTaken {
			g = g.Push(addrA)
		} else {
			g = g.Push(addrA + 0x40) // different path bit when not taken
		}
		seq++
		sel := u.Select(in(addrB, g, seq, bht, true))
		taken := aTaken
		if it > 3000 {
			total++
			if sel.Taken == taken {
				correct++
			}
		}
		u.Resolve(sel, taken)
		bht = bht.Update(taken)
		if taken {
			g = g.Push(addrB)
		}
	}
	acc := float64(correct) / float64(total)
	// TAGE or perceptron should capture this; accuracy must beat a
	// biased-coin baseline decisively.
	if acc < 0.8 {
		t.Errorf("correlated-branch accuracy = %.3f", acc)
	}
}

func TestPerceptronInstallAndPromotion(t *testing.T) {
	cfg := DefaultZ15()
	cfg.PHTEnabled = false // isolate the perceptron
	u := New(cfg)
	g := history.New(17)
	addr := zarch.Addr(0x6000)
	bht := sat.WeakT
	seq := uint64(0)
	// Alternate directions => BHT mispredicts forever; perceptron should
	// be installed, learn the alternation from its own history bit, gain
	// usefulness, and take over as provider.
	sawPerc := false
	taken := false
	for it := 0; it < 3000; it++ {
		taken = !taken
		seq++
		sel := u.Select(in(addr, g, seq, bht, true))
		if sel.Provider == ProvPerceptron {
			sawPerc = true
		}
		u.Resolve(sel, taken)
		bht = bht.Update(taken)
		if taken {
			g = g.Push(addr)
		} else {
			g = g.Push(addr + 0x80)
		}
	}
	if !u.PercHas(addr) {
		t.Fatal("perceptron never installed the hard branch")
	}
	if !sawPerc {
		t.Error("perceptron never became provider")
	}
}

func TestWeakFilteringCounts(t *testing.T) {
	// Force many weak PHT predictions wrong so the weak counter drops
	// below threshold and filtering kicks in.
	u := z15Unit()
	g := history.New(17)
	addr := zarch.Addr(0x7000)
	bht := sat.StrongT
	seq := uint64(0)
	rngState := uint64(999)
	for it := 0; it < 4000; it++ {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		taken := rngState>>61&3 != 0 // 75% taken, noisy
		seq++
		sel := u.Select(in(addr, g, seq, bht, true))
		u.Resolve(sel, taken)
		bht = bht.Update(taken)
		g = g.Push(zarch.Addr(0x8000 + (rngState>>55&0xff)<<6)) // churn history
	}
	// Not asserting a specific count; just require the machinery moved.
	st := u.Stats()
	if st.PHTInstalls == 0 {
		t.Error("noisy branch never installed into PHT")
	}
}

func TestProviderString(t *testing.T) {
	if ProvPerceptron.String() != "perceptron" || ProvBHT.String() != "bht" {
		t.Error("provider names wrong")
	}
	if Provider(99).String() != "provider(?)" {
		t.Error("out-of-range provider name")
	}
}

func TestSpecDirCapacityAndFlush(t *testing.T) {
	s := NewSpecDir(2)
	s.Install(0x100, true, 1)
	s.Install(0x200, false, 2)
	s.Install(0x300, true, 3) // evicts oldest
	if _, ok := s.Lookup(0x100); ok {
		t.Error("oldest entry survived capacity eviction")
	}
	if d, ok := s.Lookup(0x200); !ok || d {
		t.Error("entry 0x200 wrong")
	}
	s.Flush(3)
	if _, ok := s.Lookup(0x300); ok {
		t.Error("Flush(3) kept seq-3 entry")
	}
	if _, ok := s.Lookup(0x200); !ok {
		t.Error("Flush(3) removed seq-2 entry")
	}
	s.Complete(2)
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
	// Disabled tracker.
	d := NewSpecDir(0)
	d.Install(0x1, true, 1)
	if _, ok := d.Lookup(0x1); ok {
		t.Error("disabled SpecDir stored an entry")
	}
}
