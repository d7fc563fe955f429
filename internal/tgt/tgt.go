// Package tgt implements z15 target prediction beyond the BTB1's
// stored target (paper §VI): the changing target buffer (CTB), a
// GPV-indexed table for multi-target branches, and the call/return
// stack (CRS), a one-entry-deep heuristic stack for branches that
// behave like calls and returns despite the z/Architecture having no
// such instructions. Provider selection follows the paper's figure 9.
package tgt

import (
	"zbp/internal/btb"
	"zbp/internal/hashx"
	"zbp/internal/history"
	"zbp/internal/metrics"
	"zbp/internal/zarch"
)

// Provider identifies the structure that supplied a target prediction.
type Provider uint8

// Target providers in figure-9 priority order.
const (
	// ProvBTB is the target stored in the BTB1 entry.
	ProvBTB Provider = iota
	// ProvCTB is the changing target buffer.
	ProvCTB
	// ProvCRS is the call/return stack.
	ProvCRS

	numProviders
)

var providerNames = [numProviders]string{"btb", "ctb", "crs"}

func (p Provider) String() string {
	if int(p) < len(providerNames) {
		return providerNames[p]
	}
	return "target(?)"
}

// ReturnOffsets are the NSIA displacements the detection logic matches
// (0, 2, 4, 6, 8 bytes, §VI).
var ReturnOffsets = [5]uint8{0, 2, 4, 6, 8}

// Config parameterizes the target unit.
type Config struct {
	// CTBEntries is the logical CTB size (2048 on z15); 0 disables.
	CTBEntries int
	// CTBHist is the GPV depth forming the CTB index (9 pre-z15, 17 on
	// z15).
	CTBHist int
	// CTBTagBits is the virtual-address tag width per entry.
	CTBTagBits uint
	// CRSEnabled turns the call/return stack on (z14+).
	CRSEnabled bool
	// DistThreshold is the byte distance beyond which a taken branch is
	// treated as call-like.
	DistThreshold int
	// AmnestyN: every Nth completing wrong-target blacklisted branch
	// that still pair-matches gets its blacklist cleared.
	AmnestyN int
}

// DefaultZ15 returns the z15 target-unit parameters.
func DefaultZ15() Config {
	return Config{
		CTBEntries: 2048, CTBHist: 17, CTBTagBits: 10,
		CRSEnabled: true, DistThreshold: 16 * 1024, AmnestyN: 4,
	}
}

type ctbEntry struct {
	valid  bool
	tag    uint64
	target zarch.Addr
}

type stack struct {
	valid bool
	nsia  zarch.Addr
}

// Stats counts target-unit events.
type Stats struct {
	Provided      [numProviders]int64
	CTBInstalls   int64
	CTBUpdates    int64
	ReturnsMarked int64
	Blacklists    int64
	Amnesties     int64
	PredPushes    int64
	PredPops      int64
}

// Register exposes every counter under prefix (e.g. "tgt"), with the
// per-provider array flattened to one name per provider.
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	for p := ProvBTB; p < numProviders; p++ {
		r.Counter(prefix+".provided."+p.String(), &s.Provided[p])
	}
	r.Counter(prefix+".ctb_installs", &s.CTBInstalls)
	r.Counter(prefix+".ctb_updates", &s.CTBUpdates)
	r.Counter(prefix+".returns_marked", &s.ReturnsMarked)
	r.Counter(prefix+".blacklists", &s.Blacklists)
	r.Counter(prefix+".amnesties", &s.Amnesties)
	r.Counter(prefix+".pred_pushes", &s.PredPushes)
	r.Counter(prefix+".pred_pops", &s.PredPops)
}

// Unit bundles the CTB and CRS with figure-9 selection.
type Unit struct {
	cfg     Config
	ctb     []ctbEntry
	idxBits uint

	pred stack // prediction-time one-entry stack
	det  stack // detection-time (completion) one-entry stack

	blacklistWrongs int // amnesty cadence counter
	stats           Stats
}

// New returns a target unit for cfg.
func New(cfg Config) *Unit {
	u := &Unit{cfg: cfg}
	if cfg.CTBEntries > 0 {
		if cfg.CTBEntries&(cfg.CTBEntries-1) != 0 {
			panic("tgt: CTBEntries must be a power of two")
		}
		u.ctb = make([]ctbEntry, cfg.CTBEntries)
		for cfg.CTBEntries>>u.idxBits > 1 {
			u.idxBits++
		}
	}
	return u
}

// Stats returns a copy of the counters.
func (u *Unit) Stats() Stats { return u.stats }

func (u *Unit) ctbIndex(g history.GPV) int {
	// The CTB is indexed solely as a function of the prior code path
	// (§VI).
	return int(hashx.Fold(g.Recent(min(u.cfg.CTBHist, g.Depth())), u.idxBits))
}

func (u *Unit) ctbTag(addr zarch.Addr, ctx uint16) uint64 {
	return hashx.Fold(uint64(addr)>>1^uint64(ctx)<<13, u.cfg.CTBTagBits)
}

// ctbLookup returns the predicted target for the current path, if the
// entry's address-space tag matches.
func (u *Unit) ctbLookup(addr zarch.Addr, ctx uint16, g history.GPV) (zarch.Addr, bool) {
	if u.ctb == nil {
		return 0, false
	}
	e := &u.ctb[u.ctbIndex(g)]
	if e.valid && e.tag == u.ctbTag(addr, ctx) {
		return e.target, true
	}
	return 0, false
}

// CTBInstall writes a CTB entry for the branch under the given path.
func (u *Unit) CTBInstall(addr zarch.Addr, ctx uint16, g history.GPV, target zarch.Addr) {
	if u.ctb == nil {
		return
	}
	e := &u.ctb[u.ctbIndex(g)]
	if e.valid && e.tag == u.ctbTag(addr, ctx) {
		u.stats.CTBUpdates++
	} else {
		u.stats.CTBInstalls++
	}
	*e = ctbEntry{valid: true, tag: u.ctbTag(addr, ctx), target: target}
}

func (u *Unit) far(from, to zarch.Addr) bool {
	d := int64(to) - int64(from)
	if d < 0 {
		d = -d
	}
	return d > int64(u.cfg.DistThreshold)
}

// Selection is a target prediction outcome, carried in the GPQ.
type Selection struct {
	Target   zarch.Addr
	Provider Provider
	// UsedStack records that the CRS consumed the prediction stack.
	UsedStack bool
}

// Select implements figure 9 for a predicted-taken BTB1 hit. It also
// performs the prediction-side stack bookkeeping: return-marked
// branches consume the stack; call-like (far) taken branches push
// their NSIA. allowCTB is false when CPRED has powered the CTB down
// for this stream (§VI).
func (u *Unit) Select(info btb.Info, ctx uint16, g history.GPV, allowCTB bool) Selection {
	sel := Selection{Target: info.Target, Provider: ProvBTB}
	if info.MultiTarget {
		if u.cfg.CRSEnabled && info.IsReturn && !info.CRSBlacklisted && u.pred.valid {
			sel.Target = u.pred.nsia + zarch.Addr(info.ReturnOffset)
			sel.Provider = ProvCRS
			sel.UsedStack = true
			u.pred.valid = false
			u.stats.PredPops++
		} else if t, ok := u.ctbLookup(info.Addr, ctx, g); ok && allowCTB {
			sel.Target = t
			sel.Provider = ProvCTB
		}
	}
	// Prediction-side call detection: any predicted-taken branch whose
	// target is far pushes its NSIA (§VI). A branch that just consumed
	// the stack as a return does not re-push.
	if u.cfg.CRSEnabled && !sel.UsedStack && u.far(info.Addr, sel.Target) {
		u.pred = stack{valid: true, nsia: info.Addr + zarch.Addr(info.Len)}
		u.stats.PredPushes++
	}
	u.stats.Provided[sel.Provider]++
	return sel
}

// RestartPredStack clears the prediction-side stack; the BPL is
// restarted after flushes, and the speculative stack state with it.
func (u *Unit) RestartPredStack() { u.pred.valid = false }

// MetaUpdate carries BTB1 metadata changes requested by completion
// processing; the owner applies them to the BTB1 entry.
type MetaUpdate struct {
	MarkReturn     bool
	ReturnOffset   uint8
	SetBlacklist   bool
	ClearBlacklist bool
}

// CompleteTaken processes a completed, resolved-taken branch through
// the detection logic (§VI) and returns any metadata updates:
//
//   - if the branch's target matches the detection stack's NSIA plus a
//     legal offset, the branch is marked as a possible return and the
//     stack invalidated;
//   - otherwise, if the branch jumped far, its NSIA arms the stack.
//
// wasBlacklisted and wrongTarget feed the amnesty path.
func (u *Unit) CompleteTaken(addr, target zarch.Addr, length uint8, wasBlacklisted, wrongTarget bool) MetaUpdate {
	var m MetaUpdate
	if !u.cfg.CRSEnabled {
		return m
	}
	matched := false
	if u.det.valid {
		for _, off := range ReturnOffsets {
			if target == u.det.nsia+zarch.Addr(off) {
				m.MarkReturn = true
				m.ReturnOffset = off
				u.det.valid = false
				u.stats.ReturnsMarked++
				matched = true
				break
			}
		}
	}
	if !matched && u.far(addr, target) {
		u.det = stack{valid: true, nsia: addr + zarch.Addr(length)}
	}
	// Amnesty (§VI): every Nth completing wrong-target branch that was
	// blacklisted but still return-matched gets its blacklist cleared.
	if wasBlacklisted && wrongTarget {
		u.blacklistWrongs++
		if matched && u.cfg.AmnestyN > 0 && u.blacklistWrongs%u.cfg.AmnestyN == 0 {
			m.ClearBlacklist = true
			u.stats.Amnesties++
		}
	}
	return m
}

// WrongTarget processes a wrong-target resolution for a dynamically
// predicted branch (§VI) and returns requested metadata updates. The
// rules:
//
//   - BTB-provided wrong target: owner updates the BTB1 target and the
//     unit installs a CTB entry (under the prediction-time path);
//   - CTB-provided wrong target: the CTB alone is corrected;
//   - CRS-provided wrong target: the branch is blacklisted from the
//     CRS.
func (u *Unit) WrongTarget(sel Selection, addr zarch.Addr, ctx uint16, g history.GPV, actual zarch.Addr) MetaUpdate {
	var m MetaUpdate
	switch sel.Provider {
	case ProvBTB:
		u.CTBInstall(addr, ctx, g, actual)
	case ProvCTB:
		u.CTBInstall(addr, ctx, g, actual)
	case ProvCRS:
		m.SetBlacklist = true
		u.stats.Blacklists++
	}
	return m
}
