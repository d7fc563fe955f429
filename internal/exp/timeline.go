package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"zbp/internal/core"
	"zbp/internal/zarch"
)

// Timeline renders the search pipeline's schedule the way the paper's
// figures 4-7 draw it: one row per search, one column per cycle, with
// the b0..b5 stage occupying its cycle. It makes the redirect timing
// visible directly: without CPRED the b0 of the target stream lands 5
// cycles after the taken search's b0; with CPRED it lands 2 cycles
// after.
type searchEvent struct {
	b0   int64
	line zarch.Addr
}

// RenderPipelineTimeline runs a two-branch loop on a bare core and
// draws the first nSearches searches after warmup.
func RenderPipelineTimeline(w io.Writer, cfg core.Config, nSearches int) {
	c := core.New(cfg)
	loopCore(c, 0, 0x10000, 0x40000)
	var events []searchEvent
	c.SetSearchHook(func(t int, line zarch.Addr) {
		events = append(events, searchEvent{b0: c.Clock(), line: line})
	})

	// Warm up so CPRED entries exist, then capture.
	warmup := 60
	for i := 0; i < warmup; i++ {
		c.Cycle()
		for {
			if _, ok := c.PopPred(0); !ok {
				break
			}
		}
	}
	events = events[:0]
	for len(events) < nSearches {
		c.Cycle()
		for {
			if _, ok := c.PopPred(0); !ok {
				break
			}
		}
	}
	events = events[:nSearches]
	sort.Slice(events, func(i, j int) bool { return events[i].b0 < events[j].b0 })

	base := events[0].b0
	stages := cfg.PipeStages
	width := int(events[len(events)-1].b0-base) + stages

	fmt.Fprintf(w, "%-14s", "search")
	for cyc := 0; cyc < width; cyc++ {
		fmt.Fprintf(w, "%3d", cyc)
	}
	fmt.Fprintln(w)
	for i, ev := range events {
		fmt.Fprintf(w, "%-14s", fmt.Sprintf("#%d %s", i, ev.line))
		start := int(ev.b0 - base)
		for cyc := 0; cyc < width; cyc++ {
			switch {
			case cyc >= start && cyc < start+stages:
				fmt.Fprintf(w, " b%d", cyc-start)
			default:
				fmt.Fprint(w, "  .")
			}
		}
		fmt.Fprintln(w)
	}
}

// E3 and E4 append the timeline so the figures are visually
// reproduced, not just their periods measured.
func renderTimelines(w io.Writer) {
	fmt.Fprintln(w, "\npipeline schedule without CPRED (figure 4: redirect b0 five cycles after the taken search's b0):")
	noCp := core.Z15()
	noCp.CPred.Entries = 0
	RenderPipelineTimeline(w, noCp, 5)

	fmt.Fprintln(w, "\npipeline schedule with CPRED (figure 5: preemptive re-index at b2, redirect b0 two cycles after):")
	RenderPipelineTimeline(w, core.Z15(), 8)
	fmt.Fprintln(w, strings.Repeat("-", 40))
}
