package btb

import (
	"fmt"
	"math/rand"
	"testing"

	"zbp/internal/zarch"
)

// TestLRUVictimProperty drives a random Install/SearchLine/Invalidate
// sequence against one row of a small table while mirroring recency in
// a flat model, and asserts the structural LRU contract: whenever the
// table evicts or names a victim, that entry is one of the
// least-recently-touched residents (search hits and installs touch;
// Lookup and Update do not). Ties are legal — one SearchLine touches
// every hit in the same cycle — so the assertion is on the victim's
// touch stamp, not its identity. The table spans several storage
// pages, and the model runs on a row of the first, a middle and the
// last page.
func TestLRUVictimProperty(t *testing.T) {
	geo := Geometry{RowBits: 7, Ways: 4, TagBits: 20, LineShift: 6}
	for _, row := range []int{0, 1<<pageRowBits + 5, geo.Rows() - 1} {
		t.Run(fmt.Sprintf("row=%d", row), func(t *testing.T) {
			checkLRUVictimRow(t, geo, row)
		})
	}
}

func checkLRUVictimRow(t *testing.T, geo Geometry, row int) {
	tbl := New(geo)

	// Candidate branches all land in row across five distinct lines
	// with two offsets each, so the row sees capacity pressure,
	// duplicate installs, and multi-hit line searches.
	stride := zarch.Addr(geo.Rows() * geo.LineBytes())
	base := 8*stride + zarch.Addr(row*geo.LineBytes())
	var addrs []zarch.Addr
	var lines []zarch.Addr
	for i := 0; i < 5; i++ {
		line := base + zarch.Addr(i)*stride
		lines = append(lines, line)
		addrs = append(addrs, line+6, line+40)
	}

	// Model: per-address last-touch stamp for resident entries.
	touched := map[zarch.Addr]uint64{}
	var tick uint64
	minStamp := func() (zarch.Addr, uint64) {
		var at zarch.Addr
		best := ^uint64(0)
		for a, s := range touched {
			if s < best {
				best, at = s, a
			}
		}
		return at, best
	}

	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // Install
			a := addrs[rng.Intn(len(addrs))]
			tick++
			victim, evicted := tbl.Install(Info{Addr: a, Len: 4, Kind: zarch.KindCondRel, Target: a + 64})
			_, resident := touched[a]
			switch {
			case resident:
				if evicted {
					t.Fatalf("step %d: duplicate install of %#x evicted %#x", step, a, victim.Addr)
				}
			case len(touched) < geo.Ways:
				if evicted {
					t.Fatalf("step %d: install into non-full row evicted %#x", step, victim.Addr)
				}
			default:
				if !evicted {
					t.Fatalf("step %d: install into full row did not evict", step)
				}
				vStamp, ok := touched[victim.Addr]
				if !ok {
					t.Fatalf("step %d: evicted %#x which the model says is not resident", step, victim.Addr)
				}
				if _, min := minStamp(); vStamp != min {
					t.Fatalf("step %d: evicted %#x touched at %d, but least-recently-touched stamp is %d",
						step, victim.Addr, vStamp, min)
				}
				delete(touched, victim.Addr)
			}
			touched[a] = tick
		case op < 8: // SearchLine: touches every hit with one stamp
			line := lines[rng.Intn(len(lines))]
			hits := tbl.SearchLine(line)
			want := 0
			for a := range touched {
				if geo.Line(a) == line {
					want++
				}
			}
			if len(hits) != want {
				t.Fatalf("step %d: SearchLine(%#x) returned %d hits, model has %d residents on that line",
					step, line, len(hits), want)
			}
			tick++
			for _, h := range hits {
				if geo.Line(h.Addr) != line {
					t.Fatalf("step %d: hit %#x outside searched line %#x", step, h.Addr, line)
				}
				touched[h.Addr] = tick
			}
		default: // Invalidate: frees a way without touching others
			a := addrs[rng.Intn(len(addrs))]
			_, resident := touched[a]
			if got := tbl.Invalidate(a); got != resident {
				t.Fatalf("step %d: Invalidate(%#x) = %v, model resident = %v", step, a, got, resident)
			}
			delete(touched, a)
		}

		// Residency cross-check via Lookup, which does not touch LRU.
		for _, a := range addrs {
			if _, hit := tbl.Lookup(a); hit != (touched[a] != 0) {
				t.Fatalf("step %d: Lookup(%#x) = %v disagrees with model", step, a, touched[a] != 0)
			}
		}
		// LRUVictim must name a least-recently-touched entry iff the row
		// is full, and must not perturb recency (checked implicitly by
		// the model staying in sync on later steps).
		info, full := tbl.LRUVictim(base)
		if full != (len(touched) == geo.Ways) {
			t.Fatalf("step %d: LRUVictim full=%v, model residents=%d/%d", step, full, len(touched), geo.Ways)
		}
		if full {
			vStamp, ok := touched[info.Addr]
			if !ok {
				t.Fatalf("step %d: LRUVictim %#x not resident in model", step, info.Addr)
			}
			if _, min := minStamp(); vStamp != min {
				t.Fatalf("step %d: LRUVictim %#x touched at %d, least-recently-touched stamp is %d",
					step, info.Addr, vStamp, min)
			}
		}
	}
}
