// Package sat provides small saturating counters used across the
// predictor: 2-bit direction counters (BHT/PHT state), usefulness
// counters, and signed perceptron weights.
package sat

// Counter2 is a 2-bit saturating direction counter. State encoding
// follows the usual convention: 0 strong-not-taken, 1 weak-not-taken,
// 2 weak-taken, 3 strong-taken.
type Counter2 uint8

// Named counter states.
const (
	StrongNT Counter2 = 0
	WeakNT   Counter2 = 1
	WeakT    Counter2 = 2
	StrongT  Counter2 = 3
)

// Taken reports the predicted direction.
func (c Counter2) Taken() bool { return c >= WeakT }

// Weak reports whether the counter is in a weak state; weak states are
// what the speculative BHT/PHT mechanism tracks (paper §IV) and what
// TAGE weak-filtering gates on (§V).
func (c Counter2) Weak() bool { return c == WeakNT || c == WeakT }

// Update moves the counter toward the resolved direction, saturating.
func (c Counter2) Update(taken bool) Counter2 {
	if taken {
		if c < StrongT {
			return c + 1
		}
		return c
	}
	if c > StrongNT {
		return c - 1
	}
	return c
}

// Init returns the weak state matching an initial direction, the
// natural install state for a newly learned branch.
func Init(taken bool) Counter2 {
	if taken {
		return WeakT
	}
	return WeakNT
}

// Strengthen returns the strong state for the counter's current
// direction, used when a speculative (SBHT/SPHT) assumption applies a
// weak prediction as if it were correct.
func (c Counter2) Strengthen() Counter2 {
	if c.Taken() {
		return StrongT
	}
	return StrongNT
}

// UCounter is an unsigned saturating usefulness counter with a
// configurable maximum (TAGE usefulness, perceptron usefulness,
// protection limits).
type UCounter struct {
	v, max uint8
}

// NewU returns a counter over [0, max] starting at v (clamped).
func NewU(v, max uint8) UCounter {
	if v > max {
		v = max
	}
	return UCounter{v: v, max: max}
}

// Get returns the current value.
func (u UCounter) Get() uint8 { return u.v }

// Inc returns the counter incremented, saturating at max.
func (u UCounter) Inc() UCounter {
	if u.v < u.max {
		u.v++
	}
	return u
}

// Dec returns the counter decremented, saturating at 0.
func (u UCounter) Dec() UCounter {
	if u.v > 0 {
		u.v--
	}
	return u
}

// Zero reports whether the counter is exhausted.
func (u UCounter) Zero() bool { return u.v == 0 }

// Weight is a signed saturating perceptron weight.
type Weight int8

// WeightLimit bounds weight magnitude (6-bit signed range is typical
// for hardware perceptrons; the z15 patent does not publish the width).
const WeightLimit = 31

// Bump moves the weight toward agreement: +1 if up, else -1, saturating
// at +/-WeightLimit.
func (w Weight) Bump(up bool) Weight {
	if up {
		if w < WeightLimit {
			return w + 1
		}
		return w
	}
	if w > -WeightLimit {
		return w - 1
	}
	return w
}

// Abs returns the weight magnitude as an int.
func (w Weight) Abs() int {
	if w < 0 {
		return int(-w)
	}
	return int(w)
}
