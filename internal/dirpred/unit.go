package dirpred

import (
	"zbp/internal/history"
	"zbp/internal/metrics"
	"zbp/internal/sat"
	"zbp/internal/zarch"
)

// Config parameterizes the direction-prediction unit.
type Config struct {
	// PHTEnabled turns the tagged pattern history tables on.
	PHTEnabled bool
	// TwoTables selects the z15 TAGE arrangement (short + long table);
	// false models the single tagged PHT used z196..z14 (§V).
	TwoTables bool
	// PHT geometry: rows per way, ways (mirrors BTB1 ways), tag width.
	PHTRowBits uint
	PHTWays    int
	PHTTagBits uint
	// ShortHist/LongHist are the GPV depths folded into each table's
	// index (9 and 17 on z15).
	ShortHist int
	LongHist  int
	// PHTUsefulMax saturates the per-entry usefulness counter.
	PHTUsefulMax uint8
	// WeakMax/WeakThreshold parameterize the weak-filtering counter: a
	// weak TAGE prediction may provide only while the counter is at or
	// above the threshold (§V).
	WeakMax       uint8
	WeakThreshold uint8
	// SpecEntries sizes the SBHT and SPHT (0 disables both, §IV).
	SpecEntries int
	// WayBanked selects the literal physical arrangement ("512 rows
	// deep per BTB1 way", §V): the PHT bank is chosen by the hitting
	// BTB1 way. Banking exists for parallel readout of all ways; as an
	// indexing function it loses a branch's pattern state whenever the
	// branch migrates ways, which at simulation scale (small hot sets,
	// heavy thrash) is far more frequent than on the real machine. The
	// default models a unified PHT indexed by address and history only;
	// the banked mode remains available for the ablation study.
	WayBanked bool
	// PerceptronEnabled turns the neural predictor on (z14+, §V).
	PerceptronEnabled bool
	Perc              PercConfig
}

// DefaultZ15 returns the z15 direction-unit parameters.
func DefaultZ15() Config {
	return Config{
		PHTEnabled: true, TwoTables: true,
		PHTRowBits: 9, PHTWays: 8, PHTTagBits: 9,
		ShortHist: 9, LongHist: 17,
		PHTUsefulMax: 3, WeakMax: 15, WeakThreshold: 8,
		SpecEntries:       8,
		PerceptronEnabled: true, Perc: DefaultPercConfig(),
	}
}

// Stats counts direction-prediction events per provider.
type Stats struct {
	Issued  [numProviders]int64
	Correct [numProviders]int64
	// PHTInstalls / PercInstalls count successful allocations.
	PHTInstalls  int64
	PercInstalls int64
	// WeakFiltered counts weak TAGE predictions suppressed by the
	// weak-prediction counter.
	WeakFiltered int64
}

// Register exposes every counter under prefix (e.g. "dir"), with the
// per-provider arrays flattened to one name per provider.
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	for p := ProvNone; p < numProviders; p++ {
		r.Counter(prefix+".issued."+p.String(), &s.Issued[p])
		r.Counter(prefix+".correct."+p.String(), &s.Correct[p])
	}
	r.Counter(prefix+".pht_installs", &s.PHTInstalls)
	r.Counter(prefix+".perc_installs", &s.PercInstalls)
	r.Counter(prefix+".weak_filtered", &s.WeakFiltered)
}

// Unit bundles the auxiliary direction predictors and implements the
// figure-8 provider selection.
type Unit struct {
	cfg    Config
	short  *phtTable
	long   *phtTable
	perc   *Perceptron
	sbht   *SpecDir
	spht   *SpecDir
	weakOK sat.UCounter
	rotor  int
	stats  Stats
}

// New returns a direction unit for cfg.
func New(cfg Config) *Unit {
	u := &Unit{cfg: cfg, sbht: NewSpecDir(cfg.SpecEntries), spht: NewSpecDir(cfg.SpecEntries)}
	if cfg.PHTEnabled {
		// Same total capacity either way: banked = rows x ways with the
		// bank picked by the hitting BTB1 way; unified = one bank with
		// correspondingly more rows.
		rowBits, ways := cfg.PHTRowBits, cfg.PHTWays
		if !cfg.WayBanked {
			for ways > 1 { // fold the way bits into the row index
				rowBits++
				ways >>= 1
			}
		}
		u.short = newPHTTable(rowBits, ways, cfg.PHTTagBits, cfg.ShortHist, cfg.PHTUsefulMax)
		if cfg.TwoTables {
			u.long = newPHTTable(rowBits, ways, cfg.PHTTagBits, cfg.LongHist, cfg.PHTUsefulMax)
		}
	}
	if cfg.PerceptronEnabled {
		u.perc = NewPerceptron(cfg.Perc)
	}
	u.weakOK = sat.NewU(cfg.WeakThreshold, cfg.WeakMax)
	return u
}

// Input is everything figure 8 consumes for one BTB1-hit branch.
type Input struct {
	Addr zarch.Addr
	// Way is the hitting BTB1 way; the PHT is organized per way.
	Way int
	GPV history.GPV
	// Seq is the GPQ sequence number of this prediction instance.
	Seq uint64
	// Conditional is false for branches marked unconditional in the
	// BTB1 (always predicted taken, no direction structures consulted).
	Conditional bool
	// Bidirectional is the BTB1 bit gating the auxiliary predictors.
	Bidirectional bool
	// BHT is the 2-bit counter stored in the BTB1 entry.
	BHT sat.Counter2
	// AllowAux is false when CPRED has powered down the PHT and
	// perceptron for this stream (§IV, §VI).
	AllowAux bool
}

// Selection is the outcome of figure 8, carried in the GPQ until
// completion; it snapshots everything the update logic needs.
type Selection struct {
	Addr          zarch.Addr
	Way           int
	GPV           history.GPV
	Seq           uint64
	Conditional   bool
	Bidirectional bool

	Taken    bool
	Provider Provider
	// AltTaken records what would have been predicted without the
	// primary provider (§V: the GPQ stores the alternate).
	AltTaken bool

	// Snapshots for completion-time updates.
	ShortHit  bool
	LongHit   bool
	ShortTkn  bool
	LongTkn   bool
	ShortWeak bool
	LongWeak  bool
	PercHit   bool
	PercTaken bool

	// Effective counter states at prediction time, carried in the GPQ.
	// Completion updates are computed FROM THESE (as the hardware does,
	// §IV) rather than read-modify-write: the long prediction-to-
	// completion gap means the live counter may have moved. The
	// speculative SBHT/SPHT assumption is already folded in (a weak
	// state assumed correct is recorded as its strengthened form), which
	// is precisely how the weak-loop-branch pathology is avoided.
	BHTState sat.Counter2
	ShortCtr sat.Counter2
	LongCtr  sat.Counter2
}

// Select implements the direction flowchart of figure 8.
func (u *Unit) Select(in Input) Selection {
	if !u.cfg.WayBanked {
		in.Way = 0
	}
	sel := Selection{
		Addr: in.Addr, Way: in.Way, GPV: in.GPV, Seq: in.Seq,
		Conditional: in.Conditional, Bidirectional: in.Bidirectional,
	}
	if !in.Conditional {
		sel.Taken = true
		sel.AltTaken = true
		sel.Provider = ProvNone
		return sel
	}

	// Base direction: BHT with speculative override.
	bhtTaken := in.BHT.Taken()
	bhtProv := ProvBHT
	sel.BHTState = in.BHT
	if dir, ok := u.sbht.Lookup(in.Addr); ok {
		bhtTaken = dir
		bhtProv = ProvSBHT
		// The override acts as the strengthened state of the assumed
		// direction for this instance's eventual write-back.
		if dir {
			sel.BHTState = sat.StrongT
		} else {
			sel.BHTState = sat.StrongNT
		}
	} else if in.BHT.Weak() {
		// A weak prediction is assumed correct and speculatively
		// strengthened for subsequent in-flight instances (§IV). The
		// strengthened write-back state applies only if the tracker
		// stored the assumption; without an SBHT the stale weak state
		// is what gets written back -- the pathology of §IV.
		if u.sbht.Install(in.Addr, bhtTaken, in.Seq) {
			sel.BHTState = in.BHT.Strengthen()
		}
	}

	if !in.Bidirectional || !in.AllowAux {
		sel.Taken = bhtTaken
		sel.Provider = bhtProv
		sel.AltTaken = bhtTaken
		return sel
	}

	// PHT consultation (speculative first, then main tables with weak
	// filtering).
	phtTaken, phtProv, phtHit := bhtTaken, bhtProv, false
	if u.cfg.PHTEnabled {
		if dir, ok := u.spht.Lookup(in.Addr); ok {
			phtTaken, phtProv, phtHit = dir, ProvSPHT, true
		}
		if sc, ok := u.short.lookup(in.Addr, in.Way, in.GPV); ok {
			sel.ShortHit, sel.ShortTkn, sel.ShortWeak = true, sc.Taken(), sc.Weak()
			sel.ShortCtr = sc
		}
		if u.long != nil {
			if lc, ok := u.long.lookup(in.Addr, in.Way, in.GPV); ok {
				sel.LongHit, sel.LongTkn, sel.LongWeak = true, lc.Taken(), lc.Weak()
				sel.LongCtr = lc
			}
		}
		if !phtHit {
			weakAllowed := u.weakOK.Get() >= u.cfg.WeakThreshold
			switch {
			case sel.LongHit && !sel.LongWeak:
				phtTaken, phtProv, phtHit = sel.LongTkn, ProvPHTLong, true
			case sel.LongHit && sel.LongWeak && sel.ShortHit && !sel.ShortWeak:
				// Long weak but short strong: short provides (§V).
				phtTaken, phtProv, phtHit = sel.ShortTkn, ProvPHTShort, true
			case sel.LongHit && sel.LongWeak && weakAllowed:
				phtTaken, phtProv, phtHit = sel.LongTkn, ProvPHTLong, true
			case sel.ShortHit && (!sel.ShortWeak || weakAllowed):
				phtTaken, phtProv, phtHit = sel.ShortTkn, ProvPHTShort, true
			case sel.LongHit || sel.ShortHit:
				u.stats.WeakFiltered++
			}
			if phtHit && (phtProv == ProvPHTShort && sel.ShortWeak ||
				phtProv == ProvPHTLong && sel.LongWeak) {
				// Weak prediction assumed correct: speculatively
				// strengthen via the SPHT (§IV), and record the
				// strengthened state for this instance's write-back.
				if u.spht.Install(in.Addr, phtTaken, in.Seq) {
					if phtProv == ProvPHTShort {
						sel.ShortCtr = sel.ShortCtr.Strengthen()
					} else {
						sel.LongCtr = sel.LongCtr.Strengthen()
					}
				}
			}
		}
	}

	// Perceptron gets first chance when hit and useful (§V, figure 8).
	if u.perc != nil {
		res := u.perc.Lookup(in.Addr, in.GPV)
		sel.PercHit, sel.PercTaken = res.Hit, res.Taken
		if res.Hit && res.Useful {
			sel.Taken = res.Taken
			sel.Provider = ProvPerceptron
			sel.AltTaken = phtTaken
			return sel
		}
	}

	sel.Taken = phtTaken
	sel.Provider = phtProv
	// The alternate for a PHT provider is the BHT direction (§V); when
	// the PHT did not provide, provider and alternate coincide.
	sel.AltTaken = bhtTaken
	return sel
}

// Resolve applies the completion-time updates for a conditional branch
// prediction (usefulness, counters, installs, speculative cleanup).
// The caller owns the BTB1 BHT write-back; NewBHT computes it.
func (u *Unit) Resolve(sel Selection, taken bool) {
	u.sbht.Complete(sel.Seq)
	u.spht.Complete(sel.Seq)
	// Provider statistics count completed (architectural) predictions
	// only; wrong-path predictions killed by flushes never resolve.
	u.stats.Issued[sel.Provider]++
	correct := sel.Taken == taken
	if correct {
		u.stats.Correct[sel.Provider]++
	}
	if !sel.Conditional {
		return
	}

	// Weak-prediction confidence counter (§V).
	if sel.Provider == ProvPHTShort && sel.ShortWeak ||
		sel.Provider == ProvPHTLong && sel.LongWeak {
		if correct {
			u.weakOK = u.weakOK.Inc()
		} else {
			u.weakOK = u.weakOK.Dec()
		}
	}

	// TAGE usefulness (§V): provider correct & alternate wrong -> +1;
	// provider wrong & alternate correct -> -1; otherwise unchanged.
	if u.cfg.PHTEnabled {
		altCorrect := sel.AltTaken == taken
		switch sel.Provider {
		case ProvPHTShort:
			delta := 0
			if correct && !altCorrect {
				delta = 1
			} else if !correct && altCorrect {
				delta = -1
			}
			u.short.usefulnessDelta(sel.Addr, sel.Way, sel.GPV, delta)
			u.short.writeBack(sel.Addr, sel.Way, sel.GPV, sel.ShortCtr.Update(taken))
		case ProvPHTLong:
			delta := 0
			if correct && !altCorrect {
				delta = 1
			} else if !correct && altCorrect {
				delta = -1
			}
			u.long.usefulnessDelta(sel.Addr, sel.Way, sel.GPV, delta)
			u.long.writeBack(sel.Addr, sel.Way, sel.GPV, sel.LongCtr.Update(taken))
		default:
			// Non-provider hits still train toward the resolution so a
			// hit entry converges (strength update "even when correct",
			// §IV applies to the provider; background training keeps
			// tables coherent with delayed updates).
			if sel.ShortHit {
				u.short.writeBack(sel.Addr, sel.Way, sel.GPV, sel.ShortCtr.Update(taken))
			}
			if sel.LongHit && u.long != nil {
				u.long.writeBack(sel.Addr, sel.Way, sel.GPV, sel.LongCtr.Update(taken))
			}
		}
	}

	// Perceptron updates (§V).
	if u.perc != nil && sel.PercHit {
		u.perc.Train(sel.Addr, sel.GPV, taken)
		percRight := sel.PercTaken == taken
		var otherRight bool
		if sel.Provider == ProvPerceptron {
			otherRight = sel.AltTaken == taken
		} else {
			otherRight = correct
		}
		u.perc.UsefulDelta(sel.Addr, percRight, otherRight)
	}

	// Mispredict-driven installs (§V): the branch is now known
	// bidirectional; allocate PHT and perceptron entries.
	if !correct {
		u.installPHT(sel, taken)
		if u.perc != nil && !sel.PercHit {
			if u.perc.TryInstall(sel.Addr) {
				u.stats.PercInstalls++
			}
		}
	}
}

// installPHT allocates a TAGE entry per the §V policy.
func (u *Unit) installPHT(sel Selection, taken bool) {
	if !u.cfg.PHTEnabled {
		return
	}
	if u.long == nil {
		if u.short.tryInstall(sel.Addr, sel.Way, sel.GPV, taken) {
			u.stats.PHTInstalls++
		}
		return
	}
	if sel.Provider == ProvPHTShort {
		// Short table itself mispredicted: escalate to the long table.
		if u.long.tryInstall(sel.Addr, sel.Way, sel.GPV, taken) {
			u.stats.PHTInstalls++
		} else {
			u.long.usefulnessDelta(sel.Addr, sel.Way, sel.GPV, -1)
		}
		return
	}
	su := u.short.slotUseful(sel.Addr, sel.Way, sel.GPV)
	lu := u.long.slotUseful(sel.Addr, sel.Way, sel.GPV)
	var ok bool
	switch {
	case su == 0 && lu == 0:
		// Both free: favor short over long 2:1 (§V).
		u.rotor++
		if u.rotor%3 != 0 {
			ok = u.short.tryInstall(sel.Addr, sel.Way, sel.GPV, taken)
		} else {
			ok = u.long.tryInstall(sel.Addr, sel.Way, sel.GPV, taken)
		}
	case su == 0:
		ok = u.short.tryInstall(sel.Addr, sel.Way, sel.GPV, taken)
	case lu == 0:
		ok = u.long.tryInstall(sel.Addr, sel.Way, sel.GPV, taken)
	default:
		// No victim available: age both slots so the table cannot clog.
		u.short.usefulnessDelta(sel.Addr, sel.Way, sel.GPV, -1)
		u.long.usefulnessDelta(sel.Addr, sel.Way, sel.GPV, -1)
	}
	if ok {
		u.stats.PHTInstalls++
	}
}

// NewBHT returns the completion-time BHT write-back value for a
// conditional branch (§IV/§V): the 2-bit counter moves toward the
// resolved direction.
func NewBHT(old sat.Counter2, taken bool) sat.Counter2 { return old.Update(taken) }

// Flush discards speculative SBHT/SPHT entries installed by
// instances at or after seq (wrong-path cleanup).
func (u *Unit) Flush(seq uint64) {
	u.sbht.Flush(seq)
	u.spht.Flush(seq)
}

// Stats returns a copy of the counters.
func (u *Unit) Stats() Stats { return u.stats }

// PercHas exposes perceptron residency for tests and verification.
func (u *Unit) PercHas(addr zarch.Addr) bool {
	return u.perc != nil && u.perc.Has(addr)
}
