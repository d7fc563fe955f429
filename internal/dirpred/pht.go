// Package dirpred implements the z15 auxiliary direction predictors
// and the provider-selection policy of the paper's figure 8: the TAGE
// pattern history tables (short 9-branch and long 17-branch histories,
// §V), the speculative BHT/PHT weak-state trackers (§IV), and the
// 32-entry virtualized-weight perceptron (§V).
//
// The main BHT (a 2-bit counter per branch) lives inside the BTB1
// entry; this package consumes it as an input to selection and tells
// the owner what to write back at completion.
package dirpred

import (
	"zbp/internal/history"
	"zbp/internal/sat"
	"zbp/internal/zarch"
)

// Provider identifies the structure that supplied a direction
// prediction.
type Provider uint8

// Direction providers in figure-8 priority order.
const (
	// ProvNone marks non-conditional branches (direction is implied).
	ProvNone Provider = iota
	// ProvBHT is the 2-bit counter embedded in the BTB1.
	ProvBHT
	// ProvSBHT is the speculative BHT override.
	ProvSBHT
	// ProvPHTShort is the short-history TAGE table.
	ProvPHTShort
	// ProvPHTLong is the long-history TAGE table.
	ProvPHTLong
	// ProvSPHT is the speculative PHT override.
	ProvSPHT
	// ProvPerceptron is the neural auxiliary predictor.
	ProvPerceptron

	numProviders
)

var providerNames = [numProviders]string{
	"none", "bht", "sbht", "pht-short", "pht-long", "spht", "perceptron",
}

func (p Provider) String() string {
	if int(p) < len(providerNames) {
		return providerNames[p]
	}
	return "provider(?)"
}

// phtEntry is one tagged TAGE entry.
type phtEntry struct {
	valid  bool
	tag    uint64
	ctr    sat.Counter2
	useful sat.UCounter
}

// phtTable is one TAGE table: rows x ways (ways mirror the BTB1 ways,
// "512 rows deep per BTB1 way", §V).
type phtTable struct {
	rowBits uint
	tagBits uint
	hist    int // GPV branches folded into index/tag
	ways    [][]phtEntry
	umax    uint8
}

func newPHTTable(rowBits uint, ways int, tagBits uint, hist int, umax uint8) *phtTable {
	t := &phtTable{rowBits: rowBits, tagBits: tagBits, hist: hist, umax: umax}
	t.ways = make([][]phtEntry, ways)
	for w := range t.ways {
		t.ways[w] = make([]phtEntry, 1<<rowBits)
	}
	return t
}

func (t *phtTable) index(addr zarch.Addr, g history.GPV) int {
	return int(g.FoldIndex(addr, t.hist, t.rowBits))
}

func (t *phtTable) tag(addr zarch.Addr, g history.GPV) uint64 {
	return g.FoldTag(addr, t.hist, t.tagBits)
}

// lookup returns the entry state for (addr, way, history).
func (t *phtTable) lookup(addr zarch.Addr, way int, g history.GPV) (sat.Counter2, bool) {
	if way < 0 || way >= len(t.ways) {
		way = 0
	}
	e := &t.ways[way][t.index(addr, g)]
	if e.valid && e.tag == t.tag(addr, g) {
		return e.ctr, true
	}
	return 0, false
}

func (t *phtTable) at(addr zarch.Addr, way int, g history.GPV) *phtEntry {
	if way < 0 || way >= len(t.ways) {
		way = 0
	}
	return &t.ways[way][t.index(addr, g)]
}

// writeBack stores the completion-computed counter state. The value is
// computed from the GPQ-snapshotted prediction-time state, not
// read-modify-write (§IV); see dirpred.Selection.
func (t *phtTable) writeBack(addr zarch.Addr, way int, g history.GPV, ctr sat.Counter2) {
	if e := t.at(addr, way, g); e.valid && e.tag == t.tag(addr, g) {
		e.ctr = ctr
	}
}

// usefulnessDelta applies +1/-1/0 to the entry's usefulness counter.
func (t *phtTable) usefulnessDelta(addr zarch.Addr, way int, g history.GPV, delta int) {
	e := t.at(addr, way, g)
	if !e.valid || e.tag != t.tag(addr, g) {
		return
	}
	switch {
	case delta > 0:
		e.useful = e.useful.Inc()
	case delta < 0:
		e.useful = e.useful.Dec()
	}
}

// tryInstall writes a fresh entry if the slot's usefulness is zero.
// Returns whether the install happened.
func (t *phtTable) tryInstall(addr zarch.Addr, way int, g history.GPV, taken bool) bool {
	e := t.at(addr, way, g)
	if e.valid && !e.useful.Zero() {
		return false
	}
	*e = phtEntry{
		valid:  true,
		tag:    t.tag(addr, g),
		ctr:    sat.Init(taken),
		useful: sat.NewU(0, t.umax),
	}
	return true
}

// slotUseful reports the usefulness value at the would-be install slot.
func (t *phtTable) slotUseful(addr zarch.Addr, way int, g history.GPV) uint8 {
	e := t.at(addr, way, g)
	if !e.valid {
		return 0
	}
	return e.useful.Get()
}
