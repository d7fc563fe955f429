package hashx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFoldWidth(t *testing.T) {
	f := func(v uint64) bool {
		for _, n := range []uint{1, 5, 11, 17, 32, 63} {
			if Fold(v, n)>>n != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFoldDeterministic(t *testing.T) {
	if Fold(0xdeadbeefcafe, 13) != Fold(0xdeadbeefcafe, 13) {
		t.Fatal("Fold not deterministic")
	}
	if Fold(0, 16) != 0 {
		t.Errorf("Fold(0,16) = %d, want 0", Fold(0, 16))
	}
}

func TestFoldPanics(t *testing.T) {
	for _, n := range []uint{0, 64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fold(_, %d) did not panic", n)
				}
			}()
			Fold(1, n)
		}()
	}
}

func TestFoldDistinguishes(t *testing.T) {
	// Fold must at least separate nearby cache lines for small widths:
	// the BTB row index depends on it.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 2048; i++ {
		seen[Fold(i<<6, 11)] = true
	}
	if len(seen) < 1024 {
		t.Errorf("Fold over 2048 sequential lines produced only %d distinct 11-bit values", len(seen))
	}
}

func TestMixBijectiveish(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		h := Mix(i)
		if seen[h] {
			t.Fatalf("Mix collision at %d", i)
		}
		seen[h] = true
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed Rand diverged")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", got)
	}
}

func TestStringFNV(t *testing.T) {
	// Pinned 64-bit FNV-1a vectors: the function must stay stable across
	// releases or every derived seed (and thus every study) shifts.
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 14695981039346656037},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	}
	for _, c := range cases {
		if got := String(c.in); got != c.want {
			t.Errorf("String(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestSeedForDecorrelates(t *testing.T) {
	names := []string{"loops", "callret", "indirect", "lspr", "micro"}
	seen := map[uint64]string{}
	for _, n := range names {
		s := SeedFor(42, n)
		if s == 42 {
			t.Errorf("SeedFor(42, %q) returned the base seed unchanged", n)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("SeedFor collision: %q and %q both map to %#x", prev, n, s)
		}
		seen[s] = n
		if again := SeedFor(42, n); again != s {
			t.Errorf("SeedFor(42, %q) not deterministic: %#x vs %#x", n, s, again)
		}
		if other := SeedFor(43, n); other == s {
			t.Errorf("SeedFor ignores the base seed for %q", n)
		}
	}
}
