package sat

import (
	"testing"
	"testing/quick"
)

func TestCounter2Transitions(t *testing.T) {
	cases := []struct {
		start Counter2
		taken bool
		want  Counter2
	}{
		{StrongNT, true, WeakNT},
		{WeakNT, true, WeakT},
		{WeakT, true, StrongT},
		{StrongT, true, StrongT},
		{StrongT, false, WeakT},
		{WeakT, false, WeakNT},
		{WeakNT, false, StrongNT},
		{StrongNT, false, StrongNT},
	}
	for _, c := range cases {
		if got := c.start.Update(c.taken); got != c.want {
			t.Errorf("%d.Update(%v) = %d, want %d", c.start, c.taken, got, c.want)
		}
	}
}

func TestCounter2Predicates(t *testing.T) {
	if StrongNT.Taken() || WeakNT.Taken() || !WeakT.Taken() || !StrongT.Taken() {
		t.Error("Taken() wrong")
	}
	if StrongNT.Weak() || !WeakNT.Weak() || !WeakT.Weak() || StrongT.Weak() {
		t.Error("Weak() wrong")
	}
}

func TestCounter2Init(t *testing.T) {
	if Init(true) != WeakT || Init(false) != WeakNT {
		t.Error("Init wrong")
	}
}

func TestCounter2Strengthen(t *testing.T) {
	if WeakT.Strengthen() != StrongT || WeakNT.Strengthen() != StrongNT {
		t.Error("Strengthen wrong")
	}
	if StrongT.Strengthen() != StrongT {
		t.Error("Strengthen changed a strong state")
	}
}

func TestCounter2SaturationProperty(t *testing.T) {
	f := func(updates []bool) bool {
		c := WeakNT
		for _, u := range updates {
			c = c.Update(u)
			if c > StrongT {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUCounter(t *testing.T) {
	u := NewU(1, 3)
	u = u.Inc().Inc().Inc().Inc()
	if u.Get() != 3 {
		t.Errorf("Inc saturation: %d", u.Get())
	}
	for i := 0; i < 5; i++ {
		u = u.Dec()
	}
	if !u.Zero() {
		t.Errorf("Dec saturation: %d", u.Get())
	}
	if NewU(9, 3).Get() != 3 {
		t.Error("NewU did not clamp")
	}
}

func TestWeightSaturation(t *testing.T) {
	w := Weight(0)
	for i := 0; i < 100; i++ {
		w = w.Bump(true)
	}
	if w != WeightLimit {
		t.Errorf("positive saturation: %d", w)
	}
	for i := 0; i < 200; i++ {
		w = w.Bump(false)
	}
	if w != -WeightLimit {
		t.Errorf("negative saturation: %d", w)
	}
	if Weight(-5).Abs() != 5 || Weight(5).Abs() != 5 {
		t.Error("Abs wrong")
	}
}
