// Package hashx provides the small deterministic hash and PRNG
// primitives shared by the predictor structures (index/tag folding) and
// by the workload generators (reproducible randomness).
//
// Hardware index and tag functions are XOR folds of address bits; we
// mirror that so aliasing behaviour (partial tags, §IV of the paper) is
// representable rather than hidden behind a cryptographic hash.
package hashx

// Fold reduces v to n bits by repeatedly XOR-folding the high half onto
// the low half. n must be in [1, 63].
func Fold(v uint64, n uint) uint64 {
	if n == 0 || n > 63 {
		panic("hashx: Fold width out of range")
	}
	mask := uint64(1)<<n - 1
	r := uint64(0)
	for v != 0 {
		r ^= v & mask
		v >>= n
	}
	return r
}

// Mix is a splitmix64-style finalizer: a cheap bijective scrambler used
// where a raw fold would leave too much structure (e.g. perceptron row
// selection in tests). It is deterministic and allocation-free.
func Mix(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// String hashes s with 64-bit FNV-1a. Deterministic across runs and
// platforms (unlike maphash), so derived seeds are reproducible.
func String(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// SeedFor derives an independent per-stream seed from a base seed and
// a stream name. Reusing one base seed verbatim across several named
// generators correlates their random streams (identical draws in
// identical order); hashing the name in and scrambling with Mix
// decorrelates them while staying reproducible from (base, name).
func SeedFor(base uint64, name string) uint64 {
	return Mix(base ^ String(name))
}

// Rand is a splitmix64 pseudo-random generator. The zero value is a
// valid generator seeded with 0; use New for an explicit seed. It is
// intentionally tiny and dependency-free so every workload and
// constrained-random test is reproducible bit-for-bit.
type Rand struct {
	state uint64
}

// New returns a Rand seeded with seed.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next pseudo-random value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	v := r.state
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("hashx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }
