// Package cpred implements the z15 stream-based column predictor
// (CPRED, paper §IV, patent US10430195). The CPRED is indexed upon
// entering a new stream (the instructions between one taken branch's
// target and the next taken branch) and predicts:
//
//   - how many sequential searches the stream needs before the taken
//     branch that leaves it is found,
//   - the BTB1 way of that taken branch (the "column"),
//   - the redirect address of the next stream (the branch target plus
//     the learned SKOOT line-skip offset), and
//   - which auxiliary prediction structures (PHT, perceptron, CTB) the
//     stream needs powered up.
//
// A CPRED hit lets the search pipeline re-index preemptively in the b2
// cycle, sustaining one predicted-taken branch every 2 cycles instead
// of every 5 (figures 5-7).
package cpred

import (
	"zbp/internal/hashx"
	"zbp/internal/metrics"
	"zbp/internal/zarch"
)

// PowerMask says which auxiliary structures a stream needs powered up.
// If the bidirectional / multi-target state of the stream's branches is
// not set, the corresponding structures are subject to power-down
// (paper §VI).
type PowerMask uint8

// Power bits.
const (
	PowerPHT PowerMask = 1 << iota
	PowerPerceptron
	PowerCTB

	// PowerAll is the conservative default used without a CPRED hit.
	PowerAll = PowerPHT | PowerPerceptron | PowerCTB
)

// Has reports whether the mask includes bit b.
func (m PowerMask) Has(b PowerMask) bool { return m&b != 0 }

// Config parameterizes the CPRED.
type Config struct {
	// Entries is the direct-mapped table size (power of two); 0
	// disables the predictor.
	Entries int
	// TagBits is the partial tag width on the stream-start address.
	TagBits uint
	// MaxSearches caps the learnable sequential-search count.
	MaxSearches uint8
}

// DefaultZ15 returns the modeled z15 CPRED parameters (the paper does
// not publish the geometry; 2K entries matches the BTB1 row count).
func DefaultZ15() Config {
	return Config{Entries: 2048, TagBits: 12, MaxSearches: 15}
}

type entry struct {
	valid    bool
	tag      uint64
	searches uint8
	way      uint8
	redirect zarch.Addr
	power    PowerMask
}

// Result is a CPRED lookup outcome.
type Result struct {
	Hit      bool
	Searches uint8
	Way      uint8
	Redirect zarch.Addr
	Power    PowerMask
}

// Stats counts CPRED events.
type Stats struct {
	Lookups   int64
	Hits      int64
	Updates   int64
	Correct   int64 // verified stream predictions
	Incorrect int64
}

// Register exposes every counter under prefix (e.g. "cpred").
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	r.Counter(prefix+".lookups", &s.Lookups)
	r.Counter(prefix+".hits", &s.Hits)
	r.Counter(prefix+".updates", &s.Updates)
	r.Counter(prefix+".correct", &s.Correct)
	r.Counter(prefix+".incorrect", &s.Incorrect)
}

// CPRED is the stream-based column predictor.
type CPRED struct {
	cfg     Config
	entries []entry
	idxBits uint
	stats   Stats
}

// New returns a CPRED; a zero-entry config yields a disabled predictor.
func New(cfg Config) *CPRED {
	c := &CPRED{cfg: cfg}
	if cfg.Entries > 0 {
		if cfg.Entries&(cfg.Entries-1) != 0 {
			panic("cpred: Entries must be a power of two")
		}
		c.entries = make([]entry, cfg.Entries)
		for cfg.Entries>>c.idxBits > 1 {
			c.idxBits++
		}
	}
	return c
}

// Enabled reports whether the predictor is present.
func (c *CPRED) Enabled() bool { return len(c.entries) > 0 }

// Stats returns a copy of the counters.
func (c *CPRED) Stats() Stats { return c.stats }

func (c *CPRED) index(stream zarch.Addr) int {
	return int(hashx.Fold(uint64(stream)>>1, c.idxBits))
}

func (c *CPRED) tag(stream zarch.Addr) uint64 {
	return hashx.Fold(uint64(stream)>>(1+c.idxBits)^uint64(stream)>>3, c.cfg.TagBits)
}

// Lookup consults the predictor at stream entry.
func (c *CPRED) Lookup(stream zarch.Addr) Result {
	if !c.Enabled() {
		return Result{}
	}
	c.stats.Lookups++
	e := &c.entries[c.index(stream)]
	if !e.valid || e.tag != c.tag(stream) {
		return Result{}
	}
	c.stats.Hits++
	return Result{
		Hit: true, Searches: e.searches, Way: e.way,
		Redirect: e.redirect, Power: e.power,
	}
}

// Update learns a stream's outcome at the time its taken branch is
// predicted: the number of sequential searches it took, the hitting
// way, the redirect address (already including any SKOOT skip), and
// the auxiliary structures the stream turned out to need.
func (c *CPRED) Update(stream zarch.Addr, searches int, way int, redirect zarch.Addr, power PowerMask) {
	if !c.Enabled() {
		return
	}
	if searches > int(c.cfg.MaxSearches) {
		// Streams longer than the counter can express are not learned.
		return
	}
	c.stats.Updates++
	e := &c.entries[c.index(stream)]
	*e = entry{
		valid: true, tag: c.tag(stream),
		searches: uint8(searches), way: uint8(way),
		redirect: redirect, power: power,
	}
}

// Verify scores a previous prediction against the observed stream
// outcome (for stats; the pipeline corrects itself regardless).
func (c *CPRED) Verify(predicted Result, searches int, redirect zarch.Addr) {
	if !predicted.Hit {
		return
	}
	if int(predicted.Searches) == searches && predicted.Redirect == redirect {
		c.stats.Correct++
	} else {
		c.stats.Incorrect++
	}
}

// Invalidate drops the entry for a stream (used when a stream's learned
// exit branch was removed from the BTB1).
func (c *CPRED) Invalidate(stream zarch.Addr) {
	if !c.Enabled() {
		return
	}
	e := &c.entries[c.index(stream)]
	if e.valid && e.tag == c.tag(stream) {
		e.valid = false
	}
}
