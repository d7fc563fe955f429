package core

import (
	"zbp/internal/btb"
	"zbp/internal/sat"
	"zbp/internal/tgt"
	"zbp/internal/zarch"
)

// Outcome is the resolution of one dynamically predicted branch,
// reported in architectural (completion) order by the front end.
type Outcome struct {
	Pred   Prediction
	Taken  bool
	Target zarch.Addr // resolved target (meaningful when Taken)
}

// WrongDirection reports a direction mispredict.
func (o Outcome) WrongDirection() bool { return o.Pred.Taken != o.Taken }

// WrongTarget reports a taken branch whose predicted target was wrong.
func (o Outcome) WrongTarget() bool {
	return o.Taken && o.Pred.Taken && o.Pred.Target != o.Target
}

// Mispredicted reports any prediction error requiring a restart.
func (o Outcome) Mispredicted() bool { return o.WrongDirection() || o.WrongTarget() }

// Complete applies the non-speculative completion-time updates for a
// dynamically predicted branch (§IV "branch predictors are updated
// non-speculatively after instructions complete"): BHT write-back,
// bidirectional/multi-target marking, TAGE/perceptron resolution, CTB
// installs and corrections, CRS detection and blacklist/amnesty.
// Callers must invoke Complete in architectural order per thread.
func (c *Core) Complete(o Outcome) {
	p := o.Pred
	th := &c.threads[p.Thread]
	c.lastCompletedSeq = p.Seq

	// Architectural path history.
	if o.Taken {
		th.gpvArch = th.gpvArch.Push(p.Addr)
	}

	// Direction-unit resolution (usefulness, counters, installs,
	// speculative-tracker cleanup).
	c.dir.Resolve(p.Dir, o.Taken)

	wrongTgt := o.WrongTarget()
	wrongDir := o.WrongDirection()

	if wrongTgt || wrongDir {
		// The restart that follows a mispredict kills the stream before
		// the search pipeline would have relearned its CPRED entry, so
		// a stale column/power prediction (e.g. a gated CTB on a branch
		// that just went multi-target) would otherwise persist forever.
		c.cpred.Invalidate(p.StreamStart)
	}

	// Target-unit resolution.
	var tm, cm tgtMeta
	if wrongTgt {
		m := c.tgt.WrongTarget(p.Tgt, p.Addr, p.Ctx, p.Dir.GPV, o.Target)
		tm = tgtMeta{setBlacklist: m.SetBlacklist}
	}
	if o.Taken {
		wasBlacklisted := c.isBlacklisted(p.Addr)
		m := c.tgt.CompleteTaken(p.Addr, o.Target, p.Len, wasBlacklisted, wrongTgt)
		cm = tgtMeta{
			markReturn: m.MarkReturn, returnOffset: m.ReturnOffset,
			clearBlacklist: m.ClearBlacklist,
		}
	}

	// BTB1 write-back: counters and metadata (via the write pipeline's
	// update path; modeled as an immediate read-modify-write since the
	// entry is located by exact address).
	c.btb1.Update(p.Addr, func(i *btb.Info) {
		if p.Kind.Conditional() {
			// The new counter state is computed from the GPQ-snapshotted
			// prediction-time state (with any speculative strengthening
			// folded in), not read-modify-write (§IV).
			i.BHT = p.Dir.BHTState.Update(o.Taken)
		}
		if wrongDir {
			i.Bidirectional = true
		}
		if wrongTgt {
			i.MultiTarget = true
			if p.Tgt.Provider == tgt.ProvBTB {
				i.Target = o.Target
			}
		}
		if cm.markReturn {
			i.IsReturn = true
			i.ReturnOffset = cm.returnOffset
		}
		if tm.setBlacklist {
			i.CRSBlacklisted = true
		}
		if cm.clearBlacklist {
			i.CRSBlacklisted = false
		}
	})
}

type tgtMeta struct {
	markReturn     bool
	returnOffset   uint8
	setBlacklist   bool
	clearBlacklist bool
}

func (c *Core) isBlacklisted(addr zarch.Addr) bool {
	info, ok := c.btb1.Lookup(addr)
	return ok && info.CRSBlacklisted
}

// Surprise describes a completed branch that had no dynamic prediction
// (§IV): the IDU statically guessed it from instruction text.
type Surprise struct {
	Thread int
	Addr   zarch.Addr
	Len    uint8
	Kind   zarch.BranchKind
	Taken  bool
	Target zarch.Addr
	// StreamEntry is the BTB1 branch whose target-stream contained this
	// surprise (zero/false if the stream began at a restart). Used to
	// shrink a stale SKOOT skip that hid the branch (§IV).
	StreamEntry    zarch.Addr
	HasStreamEntry bool
}

// CompleteSurprise installs/updates state for a completed surprise
// branch: BTB1 install via the write queue (guessed-taken or
// resolved-taken branches only, §IV), CRS detection, SKOOT shrink, and
// the disruptive-branch proactive BTB2 trigger (§III).
func (c *Core) CompleteSurprise(s Surprise) {
	th := &c.threads[s.Thread]
	if c.btb2 != nil {
		if _, ok := c.btb2.Lookup(s.Addr); ok {
			c.stats.SurpriseInBTB2++
		}
	}
	if s.Taken {
		th.gpvArch = th.gpvArch.Push(s.Addr)
	}

	// Statically guessed not-taken branches that resolve not-taken are
	// not installed (§II.A, §IV).
	install := s.Kind.StaticGuessTaken() || s.Taken
	if install {
		info := btb.Info{
			Addr: s.Addr, Len: s.Len, Kind: s.Kind,
			Target: s.Target, BHT: sat.Init(s.Taken), Skoot: btb.SkootUnknown,
		}
		if !s.Taken {
			// Guessed taken, resolved not-taken: install with the
			// resolved direction and no useful target knowledge yet.
			info.Target = s.Addr + zarch.Addr(s.Len)
		}
		if s.Taken {
			m := c.tgt.CompleteTaken(s.Addr, s.Target, s.Len, false, false)
			if m.MarkReturn {
				info.IsReturn = true
				info.ReturnOffset = m.ReturnOffset
			}
		}
		queued := c.pushWrite(info)
		c.stats.SurpriseInstalls++
		if c.surpriseHook != nil {
			c.surpriseHook(s, queued)
		}
	} else {
		if s.Taken {
			c.tgt.CompleteTaken(s.Addr, s.Target, s.Len, false, false)
		}
		if c.surpriseHook != nil {
			c.surpriseHook(s, false)
		}
	}

	// A surprise branch hidden by a stale SKOOT skip shrinks the skip
	// of the stream's entry branch (§IV: the field only decreases).
	if c.cfg.SkootEnabled && s.HasStreamEntry {
		c.btb1.Update(s.StreamEntry, func(i *btb.Info) {
			if i.Skoot == btb.SkootUnknown || i.Skoot == 0 {
				return
			}
			tline := c.cfg.BTB1.Line(i.Target)
			sline := c.cfg.BTB1.Line(s.Addr)
			if sline < tline {
				return
			}
			lines := int((sline - tline) / zarch.Addr(c.cfg.BTB1.LineBytes()))
			if lines < int(i.Skoot) {
				i.Skoot = uint8(lines)
			}
		})
	}

	// Disruptive-branch window: an unusual number of non-predicted
	// branches in a time period proactively fires the BTB2 (§III).
	if c.cfg.SurpriseRun > 0 && c.btb2 != nil {
		now := c.clock
		c.surpriseTimes = append(c.surpriseTimes, now)
		cutoff := now - c.cfg.SurpriseWindow
		for len(c.surpriseTimes) > 0 && c.surpriseTimes[0] < cutoff {
			c.surpriseTimes = c.surpriseTimes[1:]
		}
		if len(c.surpriseTimes) >= c.cfg.SurpriseRun {
			c.surpriseTimes = c.surpriseTimes[:0]
			c.stats.BTB2Proactive++
			// Prime the region execution is heading into: the taken
			// branch's target, or the fall-through path.
			at := s.Addr
			if s.Taken {
				at = s.Target
			}
			c.btb2Search(at)
		}
	}
}

// SurpriseInfo builds the BTB payload a surprise install writes; it is
// exported for the verification harness's array-preloading path (§VII).
func SurpriseInfo(addr zarch.Addr, length uint8, kind zarch.BranchKind, target zarch.Addr, taken bool) btb.Info {
	info := btb.Info{
		Addr: addr, Len: length, Kind: kind,
		Target: target, BHT: sat.Init(taken), Skoot: btb.SkootUnknown,
	}
	if !taken {
		info.Target = addr + zarch.Addr(length)
	}
	return info
}

// BadPrediction removes an entry the IDU exposed as nonsense -- a
// prediction in the middle of an instruction or on a non-branch,
// caused by partial tagging (§IV). The front end restarts separately.
//
// The purge must cover every path a search could be resupplied from,
// not just the BTB1: on the pre-z15 designs the aliased entry also
// lives in (or flows back through) the BTBP, the BTB2, the staging
// queue, and the pending write queue. Invalidating only the BTB1 left
// a live-lock: restart at the bad address, three empty searches, the
// BTB2 miss-run backfill re-stages the same entry, the IDU flags it
// bad again — forever.
func (c *Core) BadPrediction(p Prediction) {
	c.btb1.Invalidate(p.Addr)
	if c.btbp != nil {
		c.btbp.Invalidate(p.Addr)
	}
	if c.btb2 != nil {
		c.btb2.Invalidate(p.Addr)
	}
	c.stage.Remove(p.Addr)
	kept := c.writeQ[:0]
	for _, info := range c.writeQ {
		if info.Addr != p.Addr {
			kept = append(kept, info)
		}
	}
	c.writeQ = kept
	c.stats.BadPredictions++
}
