package sim_test

import (
	"context"
	"testing"

	"zbp/internal/core"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// statsOf runs one simulation to completion and returns its canonical
// stats JSON.
func statsOf(t *testing.T, s *sim.Sim) []byte {
	t.Helper()
	res, err := s.RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// sliceSink keeps every event it is sent.
type sliceSink []sim.Event

func (s *sliceSink) Emit(e sim.Event) { *s = append(*s, e) }

// TestEventSinkToggle sweeps a small config x workload grid twice per
// cell — with no sink and with an attached EventSink — and requires
// byte-identical stats JSON from both. Attaching observability must
// never change what is observed; this is the in-package counterpart
// of the event-replay equiv pair.
func TestEventSinkToggle(t *testing.T) {
	const n = 8000
	for _, cfgName := range []string{"z15", "zEC12"} {
		gen, err := core.ByName(cfgName)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.ForGeneration(gen)
		for _, wl := range []string{"patterned", "callret"} {
			t.Run(cfgName+"/"+wl, func(t *testing.T) {
				p, err := workload.MakePacked(wl, 42, n)
				if err != nil {
					t.Fatal(err)
				}
				mk := func() *sim.Sim {
					cur := p.Cursor()
					return sim.New(cfg, []trace.Source{&cur})
				}

				plainJS := statsOf(t, mk())

				sunk := mk()
				var sink sliceSink
				sunk.SetEventSink(&sink)
				sunkJS := statsOf(t, sunk)
				if string(plainJS) != string(sunkJS) {
					t.Error("attaching an EventSink changed the stats JSON")
				}
				if len(sink) == 0 {
					t.Error("attached sink observed no events")
				}
			})
		}
	}
}

// TestFastCoreSMT2 covers the unrolled two-thread shape of the cycle
// loop: an SMT2 run with an EventSink attached must agree
// byte-for-byte with one without, and the sink must see both threads.
func TestFastCoreSMT2(t *testing.T) {
	const n = 6000
	mk := func() *sim.Sim {
		p0, err := workload.MakePacked("patterned", 42, n)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := workload.MakePacked("callret", 43, n)
		if err != nil {
			t.Fatal(err)
		}
		c0, c1 := p0.Cursor(), p1.Cursor()
		return sim.New(sim.Z15(), []trace.Source{&c0, &c1})
	}

	plainJS := statsOf(t, mk())
	sunk := mk()
	var sink sliceSink
	sunk.SetEventSink(&sink)
	if string(plainJS) != string(statsOf(t, sunk)) {
		t.Error("attaching an EventSink changed the SMT2 stats JSON")
	}
	var seen [2]bool
	for _, e := range sink {
		if e.Thread == 0 || e.Thread == 1 {
			seen[e.Thread] = true
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("SMT2 sink saw threads %v, want both", seen)
	}
}

// TestFastCoreTruncation checks the cycle loop honors the maxCycles
// budget and marks the result truncated.
func TestFastCoreTruncation(t *testing.T) {
	p, err := workload.MakePacked("patterned", 42, 50000)
	if err != nil {
		t.Fatal(err)
	}
	cur := p.Cursor()
	res, err := sim.New(sim.Z15(), []trace.Source{&cur}).RunCtx(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("maxCycles-bounded fast run not marked Truncated")
	}
	if res.Cycles > 100 {
		t.Errorf("cycle loop ran %d cycles past a 100-cycle budget", res.Cycles)
	}
}

// TestFastCoreCancellation checks cooperative cancellation on the cycle
// loop's throttled context poll.
func TestFastCoreCancellation(t *testing.T) {
	p, err := workload.MakePacked("patterned", 42, 200000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cur := p.Cursor()
	res, err := sim.New(sim.Z15(), []trace.Source{&cur}).RunCtx(ctx, 0)
	if err != context.Canceled {
		t.Fatalf("RunCtx on a canceled context returned %v, want context.Canceled", err)
	}
	if !res.Truncated {
		t.Error("canceled fast run not marked Truncated")
	}
}
