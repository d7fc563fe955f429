package sim

import (
	"context"
	"runtime"
	"testing"

	"zbp/internal/core"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// mustRun simulates n instructions of src on cfg, failing the test on a
// run error.
func mustRun(t *testing.T, cfg Config, src trace.Source, n int) Result {
	t.Helper()
	res, err := RunWorkloadCtx(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmokeAllWorkloadsZ15(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			src, err := workload.Make(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, Z15(), src, 30000)
			if res.Instructions() < 29000 {
				t.Fatalf("retired only %d instructions", res.Instructions())
			}
			if res.Cycles <= 0 || res.IPC() <= 0 {
				t.Fatalf("bad cycle accounting: %d cycles", res.Cycles)
			}
			if res.MPKI() < 0 || res.MPKI() > 200 {
				t.Errorf("implausible MPKI %.1f", res.MPKI())
			}
		})
	}
}

func TestLoopsAreWellPredicted(t *testing.T) {
	src, _ := workload.Make("loops", 1)
	res := mustRun(t, Z15(), src, 200000)
	if acc := res.Accuracy(); acc < 0.95 {
		t.Errorf("loops accuracy = %.4f, want >= 0.95", acc)
	}
}

func TestPatternedLearnedByAux(t *testing.T) {
	src, _ := workload.Make("patterned", 1)
	res := mustRun(t, Z15(), src, 400000)
	// The only irreducible branch is the 50/50 one out of ~12 per
	// iteration; everything else should be learned.
	if acc := res.Accuracy(); acc < 0.90 {
		t.Errorf("patterned accuracy = %.4f, want >= 0.90", acc)
	}
	// The PHT must actually be providing predictions.
	issued := res.Dir.Issued
	if issued[2]+issued[3]+issued[4]+issued[5]+issued[6] == 0 {
		t.Error("no auxiliary direction predictions issued")
	}
}

func TestCallReturnUsesCRS(t *testing.T) {
	src, _ := workload.Make("callret", 1)
	res := mustRun(t, Z15(), src, 300000)
	if res.Tgt.ReturnsMarked == 0 {
		t.Error("no returns detected")
	}
	if res.Tgt.Provided[2] == 0 { // ProvCRS
		t.Error("CRS never provided a target")
	}
	if acc := res.Accuracy(); acc < 0.9 {
		t.Errorf("callret accuracy = %.4f", acc)
	}
}

func TestIndirectUsesCTB(t *testing.T) {
	src, _ := workload.Make("indirect", 1)
	res := mustRun(t, Z15(), src, 300000)
	if res.Tgt.Provided[1] == 0 { // ProvCTB
		t.Error("CTB never provided a target")
	}
	if res.Tgt.CTBInstalls == 0 {
		t.Error("no CTB installs")
	}
}

func TestLSPRBTB2MattersForCapacity(t *testing.T) {
	// On a footprint exceeding the BTB1's capacity, disabling the BTB2
	// must increase surprises (§III capacity argument). A full-size 16K
	// BTB1 does not thrash within a test-sized run, so shrink it to 1K
	// entries in both arms to create the capacity pressure the paper's
	// LSPR workloads create at full scale.
	small := func(btb2 bool) Config {
		cfg := Z15()
		cfg.Core.BTB1.RowBits = 8 // 2K entries vs a ~9K-branch hot set
		cfg.Core.BTB2Enabled = btb2
		return cfg
	}
	src1, _ := workload.Make("lspr", 5)
	with := mustRun(t, small(true), src1, 1000000)
	src2, _ := workload.Make("lspr", 5)
	without := mustRun(t, small(false), src2, 1000000)

	sWith, sWithout := with.Threads[0].Surprises, without.Threads[0].Surprises
	if float64(sWithout) < 1.03*float64(sWith) {
		t.Errorf("surprises with BTB2 %d, without %d: BTB2 shows no value", sWith, sWithout)
	}
	if with.Core.BTB2MissTriggers == 0 {
		t.Error("no backfill triggers fired")
	}
}

func TestSMT2RunsBothThreads(t *testing.T) {
	a, _ := workload.Make("loops", 1)
	b, _ := workload.Make("callret", 2)
	s := New(Z15(), []trace.Source{trace.Limit(a, 50000), trace.Limit(b, 50000)})
	res, err := s.RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("threads = %d", len(res.Threads))
	}
	for i, ts := range res.Threads {
		if ts.Instructions < 49000 {
			t.Errorf("thread %d retired %d", i, ts.Instructions)
		}
	}
}

func TestGenerationalMPKIOrdering(t *testing.T) {
	// The headline result's shape (§VIII): newer generations mispredict
	// less on LSPR-like work.
	mpki := map[string]float64{}
	for _, gen := range core.Generations() {
		src, _ := workload.Make("lspr-small", 9)
		res := mustRun(t, ForGeneration(gen), src, 400000)
		mpki[gen.Name] = res.MPKI()
	}
	if !(mpki["z15"] < mpki["z13"]) {
		t.Errorf("z15 MPKI %.2f not better than z13 %.2f", mpki["z15"], mpki["z13"])
	}
	if !(mpki["z14"] < mpki["zEC12"]) {
		t.Errorf("z14 MPKI %.2f not better than zEC12 %.2f", mpki["z14"], mpki["zEC12"])
	}
}

func TestPrefetchReducesFetchStall(t *testing.T) {
	cfgOn := Z15()
	cfgOff := Z15()
	cfgOff.Prefetch = false
	src1, _ := workload.Make("lspr", 3)
	src2, _ := workload.Make("lspr", 3)
	on := mustRun(t, cfgOn, src1, 300000)
	off := mustRun(t, cfgOff, src2, 300000)
	if on.Threads[0].FetchStall >= off.Threads[0].FetchStall {
		t.Errorf("prefetch did not reduce fetch stalls: on=%d off=%d",
			on.Threads[0].FetchStall, off.Threads[0].FetchStall)
	}
	if on.IC.PrefetchUseful == 0 {
		t.Error("no useful prefetches")
	}
}

func TestNoICacheStillRuns(t *testing.T) {
	cfg := Z15()
	cfg.ICache = nil
	src, _ := workload.Make("loops", 1)
	res := mustRun(t, cfg, src, 50000)
	if res.Instructions() < 49000 {
		t.Fatalf("retired %d", res.Instructions())
	}
	if res.Threads[0].FetchStall != 0 {
		t.Error("fetch stalls without an I-cache model")
	}
}

func TestDeterministicRuns(t *testing.T) {
	src1, _ := workload.Make("lspr-small", 4)
	src2, _ := workload.Make("lspr-small", 4)
	a := mustRun(t, Z15(), src1, 100000)
	b := mustRun(t, Z15(), src2, 100000)
	if a.Cycles != b.Cycles || a.Mispredicts() != b.Mispredicts() {
		t.Errorf("nondeterminism: %d/%d cycles, %d/%d mispredicts",
			a.Cycles, b.Cycles, a.Mispredicts(), b.Mispredicts())
	}
}

func TestNewPanicsOnBadThreadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted 0 sources")
		}
	}()
	New(Z15(), nil)
}

// TestNewAllocatesLittle pins that building a simulator does not
// allocate the predictor tables up front: BTB storage is allocated a
// page at a time by the first install into it, so a preset's sim.New
// stays well under a mebibyte even though a z15 BTB1 and BTB2 fully
// populated would take ~8 MB. The TotalAlloc delta counts bytes, so
// the check does not depend on timing.
func TestNewAllocatesLittle(t *testing.T) {
	const limit = 1 << 20
	for _, gen := range core.Generations() {
		cfg := ForGeneration(gen)
		srcs := []trace.Source{trace.NewSliceSource(nil)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := New(cfg, srcs)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: sim.New allocated %d KiB, want under %d KiB", gen.Name, got>>10, limit>>10)
		} else {
			t.Logf("%s: sim.New allocated %d KiB", gen.Name, got>>10)
		}
	}
}
