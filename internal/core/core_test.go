package core

import (
	"testing"

	"zbp/internal/btb"
	"zbp/internal/sat"
	"zbp/internal/zarch"
)

// takenBranch builds an unconditional relative branch entry.
func takenBranch(addr, target zarch.Addr) btb.Info {
	return btb.Info{
		Addr: addr, Len: 4, Kind: zarch.KindUncondRel,
		Target: target, BHT: sat.StrongT, Skoot: btb.SkootUnknown,
	}
}

// condBranch builds a conditional relative branch entry.
func condBranch(addr, target zarch.Addr, bht sat.Counter2) btb.Info {
	return btb.Info{
		Addr: addr, Len: 4, Kind: zarch.KindCondRel,
		Target: target, BHT: bht, Skoot: btb.SkootUnknown,
	}
}

func run(c *Core, cycles int) {
	for i := 0; i < cycles; i++ {
		c.Cycle()
	}
}

func TestConfigsValidate(t *testing.T) {
	for _, cfg := range Generations() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if _, err := ByName("z15"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("z99"); err == nil {
		t.Error("ByName accepted unknown config")
	}
}

func TestGenerationCapacitiesGrow(t *testing.T) {
	gens := Generations()
	for i := 1; i < len(gens); i++ {
		prev, cur := gens[i-1], gens[i]
		if cur.BTB1.Capacity() < prev.BTB1.Capacity() {
			t.Errorf("BTB1 capacity shrank %s->%s", prev.Name, cur.Name)
		}
		if cur.BTB2.Capacity() < prev.BTB2.Capacity() {
			t.Errorf("BTB2 capacity shrank %s->%s", prev.Name, cur.Name)
		}
	}
	z15 := Z15()
	if z15.BTB1.Capacity() != 16384 || z15.BTB2.Capacity() != 131072 {
		t.Errorf("z15 capacities: BTB1=%d BTB2=%d", z15.BTB1.Capacity(), z15.BTB2.Capacity())
	}
}

func TestPredictionPresentedAtB5(t *testing.T) {
	c := New(Z15())
	c.Preload(1, takenBranch(0x10008, 0x20000))
	c.Restart(0, 0x10000, 0)
	// Restart schedules the first b0 at clock+1.
	start := c.Clock()
	var got Prediction
	for i := 0; i < 20; i++ {
		c.Cycle()
		if p := c.VisiblePred(0); p != nil {
			got = *p
			break
		}
	}
	if got.Addr != 0x10008 || !got.Taken || got.Target != 0x20000 {
		t.Fatalf("prediction = %+v", got)
	}
	// b0 at start+1, presented at b5 = start+1+5.
	if want := start + 1 + int64(Z15().PipeStages) - 1; got.PresentedAt != want {
		t.Errorf("PresentedAt = %d, want %d", got.PresentedAt, want)
	}
}

// measureTakenPeriod runs a two-branch loop (A -> B -> A ...) and
// returns the steady-state cycle gap between consecutive taken
// predictions.
func measureTakenPeriod(t *testing.T, cfg Config, warm, meas int) float64 {
	t.Helper()
	c := New(cfg)
	a, b := zarch.Addr(0x10000), zarch.Addr(0x40000)
	c.Preload(1, takenBranch(a+8, b))
	c.Preload(1, takenBranch(b+8, a))
	c.Restart(0, a, 0)
	var times []int64
	for len(times) < warm+meas {
		c.Cycle()
		for {
			p, ok := c.PopPred(0)
			if !ok {
				break
			}
			if p.Taken {
				times = append(times, p.PresentedAt)
			}
		}
	}
	first, last := times[warm], times[len(times)-1]
	return float64(last-first) / float64(len(times)-1-warm)
}

func TestTakenPeriodWithCPRED(t *testing.T) {
	// Figure 5: with CPRED the design predicts a taken branch every 2
	// cycles.
	p := measureTakenPeriod(t, Z15(), 40, 60)
	if p < 1.9 || p > 2.3 {
		t.Errorf("taken period with CPRED = %.2f, want ~2", p)
	}
}

func TestTakenPeriodWithoutCPRED(t *testing.T) {
	// Figure 4: without CPRED, one taken branch every 5 cycles.
	cfg := Z15()
	cfg.CPred.Entries = 0
	p := measureTakenPeriod(t, cfg, 10, 40)
	if p < 4.9 || p > 5.3 {
		t.Errorf("taken period without CPRED = %.2f, want ~5", p)
	}
}

func TestSequentialSearchAdvances(t *testing.T) {
	c := New(Z15())
	c.Restart(0, 0x10000, 0)
	run(c, 10)
	_, searched, _ := c.SearchProgress(0)
	// 10 cycles, first b0 at cycle 1: 10 sequential searches of 64B.
	if searched < 0x10000+9*64 {
		t.Errorf("searchedTo = %s", searched)
	}
	if st := c.Stats(); st.NoPredSearches < 9 {
		t.Errorf("NoPredSearches = %d", st.NoPredSearches)
	}
}

func TestBTB2BackfillOnMissRun(t *testing.T) {
	cfg := Z15()
	c := New(cfg)
	// Branch known only to the BTB2, several lines ahead of the restart
	// point so the 3-miss trigger fires first.
	br := takenBranch(0x10200+8, 0x90000)
	c.Preload(2, br)
	c.Restart(0, 0x10000, 0)
	run(c, 60)
	if _, ok := c.BTB1Lookup(br.Addr); !ok {
		t.Fatal("BTB2 content never backfilled into BTB1")
	}
	if c.Stats().BTB2MissTriggers == 0 {
		t.Error("no miss-run trigger recorded")
	}
}

func TestNoBTB2NoBackfill(t *testing.T) {
	cfg := Z15()
	cfg.BTB2Enabled = false
	c := New(cfg)
	c.Restart(0, 0x10000, 0)
	run(c, 60)
	if c.Stats().BTB2MissTriggers != 0 {
		t.Error("miss triggers without a BTB2")
	}
}

func TestPeriodicRefreshWritesToBTB2(t *testing.T) {
	cfg := Z15()
	cfg.RefreshRun = 1
	c := New(cfg)
	// Fill one BTB1 row completely so an LRU victim exists, then search
	// a row-aliased line whose tag misses: the no-hit search's row is
	// full, and its LRU entry is refreshed out to the BTB2 (§III).
	row := zarch.Addr(0x10000)
	stride := zarch.Addr(cfg.BTB1.Rows() * cfg.BTB1.LineBytes())
	for w := 0; w < cfg.BTB1.Ways; w++ {
		c.Preload(1, takenBranch(row+zarch.Addr(w)*stride+8, 0x90000))
	}
	before := c.BTB2Occupancy()
	c.Restart(0, row+zarch.Addr(cfg.BTB1.Ways+2)*stride, 0)
	run(c, 10)
	if c.Stats().RefreshWrites == 0 {
		t.Fatal("no refresh writes")
	}
	if c.BTB2Occupancy() <= before {
		t.Error("refresh did not populate the BTB2")
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := Z15()
	cfg.PredQueueCap = 4
	c := New(cfg)
	a, b := zarch.Addr(0x10000), zarch.Addr(0x40000)
	c.Preload(1, takenBranch(a+8, b))
	c.Preload(1, takenBranch(b+8, a))
	c.Restart(0, a, 0)
	run(c, 200) // never consume
	if got := c.QueueLen(0); got > cfg.PredQueueCap {
		t.Errorf("queue grew to %d, cap %d", got, cfg.PredQueueCap)
	}
	if c.Stats().QueueStallCycles == 0 {
		t.Error("no stall cycles recorded")
	}
}

func TestRestartClearsQueue(t *testing.T) {
	c := New(Z15())
	c.Preload(1, takenBranch(0x10008, 0x20000))
	c.Restart(0, 0x10000, 0)
	run(c, 10)
	if c.QueueLen(0) == 0 {
		t.Fatal("no predictions queued")
	}
	c.Restart(0, 0x50000, 0)
	if c.QueueLen(0) != 0 {
		t.Error("restart kept stale predictions")
	}
	_, _, epoch := c.SearchProgress(0)
	if epoch != 2 {
		t.Errorf("epoch = %d", epoch)
	}
}

func TestSMT2PortSharing(t *testing.T) {
	cfg := Z15()
	c := New(cfg)
	c.Restart(0, 0x10000, 0)
	c.Restart(1, 0x80000, 1)
	run(c, 40)
	st := c.Stats()
	// Two threads share one port: total searches ~= cycles.
	if st.Searches > st.Cycles+2 {
		t.Errorf("shared port exceeded 1 search/cycle: %d searches in %d cycles",
			st.Searches, st.Cycles)
	}
	// Pre-z15: two ports, each thread searches every cycle.
	c13 := New(Z13())
	c13.Restart(0, 0x10000, 0)
	c13.Restart(1, 0x80000, 1)
	run(c13, 40)
	st13 := c13.Stats()
	if st13.Searches < 2*st13.Cycles-4 {
		t.Errorf("dual-port design searched only %d in %d cycles", st13.Searches, st13.Cycles)
	}
}

func TestCompleteUpdatesBHT(t *testing.T) {
	c := New(Z15())
	br := condBranch(0x10008, 0x20000, sat.WeakT)
	c.Preload(1, br)
	c.Restart(0, 0x10000, 0)
	var p Prediction
	for i := 0; i < 20; i++ {
		c.Cycle()
		if q, ok := c.PopPred(0); ok {
			p = q
			break
		}
	}
	if p.Addr != br.Addr {
		t.Fatalf("no prediction: %+v", p)
	}
	c.Complete(Outcome{Pred: p, Taken: true, Target: 0x20000})
	info, _ := c.BTB1Lookup(br.Addr)
	if info.BHT != sat.StrongT {
		t.Errorf("BHT after taken completion = %d", info.BHT)
	}
	if info.Bidirectional {
		t.Error("correct prediction set bidirectional")
	}
}

func TestCompleteWrongDirectionSetsBidirectional(t *testing.T) {
	c := New(Z15())
	br := condBranch(0x10008, 0x20000, sat.StrongT)
	c.Preload(1, br)
	c.Restart(0, 0x10000, 0)
	var p Prediction
	for i := 0; i < 20; i++ {
		c.Cycle()
		if q, ok := c.PopPred(0); ok {
			p = q
			break
		}
	}
	c.Complete(Outcome{Pred: p, Taken: false})
	info, _ := c.BTB1Lookup(br.Addr)
	if !info.Bidirectional {
		t.Error("wrong direction did not set bidirectional")
	}
}

func TestCompleteWrongTargetSetsMultiTargetAndFixesBTB(t *testing.T) {
	c := New(Z15())
	br := takenBranch(0x10008, 0x20000)
	br.Kind = zarch.KindUncondInd
	br.Len = 2
	c.Preload(1, br)
	c.Restart(0, 0x10000, 0)
	var p Prediction
	for i := 0; i < 20; i++ {
		c.Cycle()
		if q, ok := c.PopPred(0); ok {
			p = q
			break
		}
	}
	c.Complete(Outcome{Pred: p, Taken: true, Target: 0x30000})
	info, _ := c.BTB1Lookup(br.Addr)
	if !info.MultiTarget {
		t.Error("wrong target did not set multi-target")
	}
	if info.Target != 0x30000 {
		t.Errorf("BTB target not corrected: %s", info.Target)
	}
}

func TestSurpriseInstallRules(t *testing.T) {
	c := New(Z15())
	c.Restart(0, 0x10000, 0)
	run(c, 2)
	// Resolved-taken conditional: installed.
	c.CompleteSurprise(Surprise{Thread: 0, Addr: 0x11000, Len: 4,
		Kind: zarch.KindCondRel, Taken: true, Target: 0x12000})
	// Guessed-NT resolved-NT conditional: not installed.
	c.CompleteSurprise(Surprise{Thread: 0, Addr: 0x11100, Len: 4,
		Kind: zarch.KindCondRel, Taken: false})
	// Guessed-taken (loop) resolved-NT: installed.
	c.CompleteSurprise(Surprise{Thread: 0, Addr: 0x11200, Len: 4,
		Kind: zarch.KindLoop, Taken: false})
	run(c, 10) // drain write queue
	if _, ok := c.BTB1Lookup(0x11000); !ok {
		t.Error("resolved-taken surprise not installed")
	}
	if _, ok := c.BTB1Lookup(0x11100); ok {
		t.Error("guessed-NT resolved-NT surprise installed")
	}
	if _, ok := c.BTB1Lookup(0x11200); !ok {
		t.Error("guessed-taken resolved-NT surprise not installed")
	}
	if c.Stats().SurpriseInstalls != 2 {
		t.Errorf("SurpriseInstalls = %d", c.Stats().SurpriseInstalls)
	}
}

func TestSurpriseRunTriggersProactiveBTB2(t *testing.T) {
	cfg := Z15()
	cfg.SurpriseRun = 3
	cfg.SurpriseWindow = 1000
	c := New(cfg)
	c.Preload(2, takenBranch(0x11008, 0x90000))
	c.Restart(0, 0x10000, 0)
	for i := 0; i < 3; i++ {
		run(c, 2)
		c.CompleteSurprise(Surprise{Thread: 0, Addr: zarch.Addr(0x11000 + i*0x80),
			Len: 4, Kind: zarch.KindCondRel, Taken: true, Target: 0x12000})
	}
	if c.Stats().BTB2Proactive == 0 {
		t.Fatal("no proactive BTB2 search")
	}
}

func TestCtxChangePrefetch(t *testing.T) {
	c := New(Z15())
	c.Restart(0, 0x10000, 1)
	run(c, 2)
	c.Restart(0, 0x10000, 2)
	if c.Stats().BTB2CtxPrefetch != 1 {
		t.Errorf("ctx prefetches = %d", c.Stats().BTB2CtxPrefetch)
	}
}

func TestBadPredictionInvalidates(t *testing.T) {
	c := New(Z15())
	br := takenBranch(0x10008, 0x20000)
	c.Preload(1, br)
	c.Restart(0, 0x10000, 0)
	var p Prediction
	for i := 0; i < 20; i++ {
		c.Cycle()
		if q, ok := c.PopPred(0); ok {
			p = q
			break
		}
	}
	c.BadPrediction(p)
	if _, ok := c.BTB1Lookup(br.Addr); ok {
		t.Error("bad prediction entry survived")
	}
	if c.Stats().BadPredictions != 1 {
		t.Error("BadPredictions not counted")
	}
}

func TestSkootLearnsAndSkips(t *testing.T) {
	cfg := Z15()
	c := New(cfg)
	// Branch A jumps to a target whose next branch (B) is 3 lines
	// later; SKOOT on A should learn 3 and later skip straight there.
	a := takenBranch(0x10008, 0x20000)
	b := takenBranch(0x20000+3*64+8, 0x10000)
	c.Preload(1, a)
	c.Preload(1, b)
	c.Restart(0, 0x10000, 0)
	run(c, 120)
	infoA, _ := c.BTB1Lookup(a.Addr)
	if infoA.Skoot != 3 {
		t.Fatalf("SKOOT on A = %d, want 3", infoA.Skoot)
	}
	if c.Stats().SkootLinesSkipped == 0 {
		t.Error("no lines skipped")
	}
}

func TestSkootShrinksOnSurprise(t *testing.T) {
	cfg := Z15()
	c := New(cfg)
	a := takenBranch(0x10008, 0x20000)
	a.Skoot = 3 // stale: pretends 3 lines are empty
	c.Preload(1, a)
	c.Restart(0, 0x10000, 0)
	run(c, 20)
	// Surprise branch appears one line into the "skipped" region.
	c.CompleteSurprise(Surprise{Thread: 0, Addr: 0x20000 + 64 + 8, Len: 4,
		Kind: zarch.KindCondRel, Taken: true, Target: 0x30000,
		StreamEntry: a.Addr, HasStreamEntry: true})
	infoA, _ := c.BTB1Lookup(a.Addr)
	if infoA.Skoot != 1 {
		t.Errorf("SKOOT after surprise = %d, want 1", infoA.Skoot)
	}
}

func TestBTBPPromotionPath(t *testing.T) {
	// On z14, BTB2 hits land in the BTBP; a qualified BTBP hit is
	// promoted into the BTB1.
	cfg := Z14()
	c := New(cfg)
	br := takenBranch(0x10108, 0x90000)
	br.Len = 4
	c.Preload(2, br)
	c.Restart(0, 0x10000, 0)
	run(c, 200)
	if _, ok := c.BTB1Lookup(br.Addr); !ok {
		t.Fatal("BTBP hit never promoted to BTB1")
	}
}

func TestPreloadPanicsOnBadLevel(t *testing.T) {
	c := New(Z15())
	defer func() {
		if recover() == nil {
			t.Error("Preload(3, ...) did not panic")
		}
	}()
	c.Preload(3, takenBranch(0x1000, 0x2000))
}
