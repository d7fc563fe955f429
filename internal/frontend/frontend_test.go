package frontend

import (
	"testing"

	"zbp/internal/btb"
	"zbp/internal/core"
	"zbp/internal/sat"
	"zbp/internal/trace"
	"zbp/internal/zarch"
)

// loopTrace builds a trace of a two-block loop: pad at base, cond
// branch back to base (taken n-1 times then exits via a final
// not-taken and stops).
func loopTrace(base zarch.Addr, iters int) []trace.Rec {
	var recs []trace.Rec
	for i := 0; i < iters; i++ {
		recs = append(recs,
			trace.NewRec(base, 4, zarch.KindNone, false, 0, 0),
			trace.NewRec(base+4, 4, zarch.KindNone, false, 0, 0),
			trace.NewRec(base+8, 4, zarch.KindCondRel, i < iters-1, base, 0),
		)
	}
	// A few trailing sequential instructions.
	a := base + 12
	for i := 0; i < 4; i++ {
		recs = append(recs, trace.NewRec(a, 4, zarch.KindNone, false, 0, 0))
		a += 4
	}
	return recs
}

// runFE wires a single thread against a fresh core and runs to
// completion.
func runFE(t *testing.T, cfg core.Config, fcfg Config, recs []trace.Rec, preload ...btb.Info) (Stats, *core.Core) {
	t.Helper()
	c := core.New(cfg)
	for _, info := range preload {
		c.Preload(1, info)
	}
	fe := NewThread(fcfg, 0, c, nil, trace.NewSliceSource(recs))
	for i := 0; i < 4_000_000 && !fe.Done(); i++ {
		c.Cycle()
		fe.Step(c.Clock())
	}
	if !fe.Done() {
		t.Fatal("front end never finished")
	}
	return fe.Stats(), c
}

func TestAllInstructionsRetire(t *testing.T) {
	recs := loopTrace(0x10000, 50)
	st, _ := runFE(t, core.Z15(), DefaultConfig(), recs)
	if st.Instructions != int64(len(recs)) {
		t.Fatalf("retired %d of %d", st.Instructions, len(recs))
	}
	if st.Branches != 50 {
		t.Errorf("branches = %d", st.Branches)
	}
}

func TestLoopBecomesDynamic(t *testing.T) {
	recs := loopTrace(0x10000, 200)
	st, _ := runFE(t, core.Z15(), DefaultConfig(), recs)
	// First encounter is a surprise; after install, the loop branch is
	// dynamically predicted.
	if st.Surprises == 0 {
		t.Error("no surprise on cold branch")
	}
	if st.DynamicPredicted < 150 {
		t.Errorf("dynamic predictions = %d, want most of 200", st.DynamicPredicted)
	}
	if st.DynCorrect < 140 {
		t.Errorf("correct dynamics = %d", st.DynCorrect)
	}
}

func TestMispredictChargesRestart(t *testing.T) {
	// A branch whose BTB entry says strong-taken but trace says
	// not-taken: one wrong-direction mispredict, restart penalty.
	recs := []trace.Rec{
		trace.NewRec(0x10000, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x10004, 4, zarch.KindCondRel, false, 0, 0),
		trace.NewRec(0x10008, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x1000c, 4, zarch.KindNone, false, 0, 0),
	}
	entry := btb.Info{Addr: 0x10004, Len: 4, Kind: zarch.KindCondRel,
		Target: 0x20000, BHT: sat.StrongT, Skoot: btb.SkootUnknown}
	st, _ := runFE(t, core.Z15(), DefaultConfig(), recs, entry)
	if st.DynWrongDir != 1 {
		t.Fatalf("DynWrongDir = %d", st.DynWrongDir)
	}
	want := DefaultConfig().RestartPenalty + DefaultConfig().QueueRefillPenalty
	if st.RestartStall < want {
		t.Errorf("RestartStall = %d, want >= %d", st.RestartStall, want)
	}
	if st.Mispredicts() != 1 {
		t.Errorf("Mispredicts = %d", st.Mispredicts())
	}
}

func TestWrongTargetDetected(t *testing.T) {
	recs := []trace.Rec{
		trace.NewRec(0x10000, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x10004, 2, zarch.KindUncondInd, true, 0x30000, 0),
		trace.NewRec(0x30000, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x30004, 4, zarch.KindNone, false, 0, 0),
	}
	entry := btb.Info{Addr: 0x10004, Len: 2, Kind: zarch.KindUncondInd,
		Target: 0x20000, BHT: sat.StrongT, Skoot: btb.SkootUnknown}
	st, c := runFE(t, core.Z15(), DefaultConfig(), recs, entry)
	if st.DynWrongTarget != 1 {
		t.Fatalf("DynWrongTarget = %d", st.DynWrongTarget)
	}
	info, ok := c.BTB1Lookup(0x10004)
	if !ok || !info.MultiTarget {
		t.Error("multi-target not set after wrong target")
	}
}

func TestSurprisePenalties(t *testing.T) {
	cfg := DefaultConfig()
	// Taken indirect surprise: front end waits for execution.
	recs := []trace.Rec{
		trace.NewRec(0x10000, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x10004, 2, zarch.KindUncondInd, true, 0x30000, 0),
		trace.NewRec(0x30000, 4, zarch.KindNone, false, 0, 0),
	}
	st, _ := runFE(t, core.Z15(), cfg, recs)
	if st.SurpriseTakenInd != 1 {
		t.Fatalf("SurpriseTakenInd = %d", st.SurpriseTakenInd)
	}
	if st.RestartStall < cfg.SurpriseTakenIndPenalty {
		t.Errorf("stall %d < indirect penalty", st.RestartStall)
	}

	// Taken relative surprise (uncond): cheap front-end redirect.
	recs2 := []trace.Rec{
		trace.NewRec(0x10000, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x10004, 4, zarch.KindUncondRel, true, 0x30000, 0),
		trace.NewRec(0x30000, 4, zarch.KindNone, false, 0, 0),
	}
	st2, _ := runFE(t, core.Z15(), cfg, recs2)
	if st2.SurpriseTakenRel != 1 {
		t.Fatalf("SurpriseTakenRel = %d", st2.SurpriseTakenRel)
	}
	if st2.RestartStall > st.RestartStall {
		t.Error("relative surprise cost more than indirect")
	}

	// Wrong static guess: conditional resolved taken.
	recs3 := []trace.Rec{
		trace.NewRec(0x10000, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x10004, 4, zarch.KindCondRel, true, 0x30000, 0),
		trace.NewRec(0x30000, 4, zarch.KindNone, false, 0, 0),
	}
	st3, _ := runFE(t, core.Z15(), cfg, recs3)
	if st3.SurpriseWrong != 1 {
		t.Fatalf("SurpriseWrong = %d", st3.SurpriseWrong)
	}
	if st3.Mispredicts() != 1 {
		t.Error("wrong guess not counted as mispredict")
	}
}

func TestBadPredictionDetectedAndRemoved(t *testing.T) {
	// Preload a BTB entry claiming a branch at an address that holds a
	// plain instruction: the IDU must detect it, invalidate, restart.
	recs := []trace.Rec{
		trace.NewRec(0x10000, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x10004, 4, zarch.KindNone, false, 0, 0), // not a branch!
		trace.NewRec(0x10008, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x1000c, 4, zarch.KindNone, false, 0, 0),
	}
	entry := btb.Info{Addr: 0x10004, Len: 4, Kind: zarch.KindUncondRel,
		Target: 0x20000, BHT: sat.StrongT, Skoot: btb.SkootUnknown}
	st, c := runFE(t, core.Z15(), DefaultConfig(), recs, entry)
	if st.BadPredictions != 1 {
		t.Fatalf("BadPredictions = %d", st.BadPredictions)
	}
	if _, ok := c.BTB1Lookup(0x10004); ok {
		t.Error("bad entry survived")
	}
	if st.Instructions != 4 {
		t.Errorf("retired %d", st.Instructions)
	}
}

func TestMidInstructionBadPrediction(t *testing.T) {
	// Entry points into the middle of a 6-byte instruction.
	recs := []trace.Rec{
		trace.NewRec(0x10000, 6, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x10006, 4, zarch.KindNone, false, 0, 0),
		trace.NewRec(0x1000a, 4, zarch.KindNone, false, 0, 0),
	}
	entry := btb.Info{Addr: 0x10002, Len: 4, Kind: zarch.KindUncondRel,
		Target: 0x20000, BHT: sat.StrongT, Skoot: btb.SkootUnknown}
	st, _ := runFE(t, core.Z15(), DefaultConfig(), recs, entry)
	if st.BadPredictions != 1 {
		t.Fatalf("BadPredictions = %d", st.BadPredictions)
	}
}

func TestDispatchSyncStallCounted(t *testing.T) {
	// Long sequential stretch: dispatch (up to ~6-8 instr = 24-32B per
	// cycle) roughly keeps pace with the 64B/cycle search, so stalls
	// should be rare after startup; but right after restart the BPL is
	// a cycle ahead, so at least some sync behaviour must be observed
	// without deadlocking.
	var recs []trace.Rec
	a := zarch.Addr(0x10000)
	for i := 0; i < 3000; i++ {
		recs = append(recs, trace.NewRec(a, 4, zarch.KindNone, false, 0, 0))
		a += 4
	}
	st, _ := runFE(t, core.Z15(), DefaultConfig(), recs)
	if st.Instructions != 3000 {
		t.Fatalf("retired %d", st.Instructions)
	}
	// IPC should be near dispatch width over the run.
	ipc := float64(st.Instructions) / float64(st.Cycles)
	if ipc < 3 {
		t.Errorf("sequential IPC = %.2f, expected fetch-limited ~6", ipc)
	}
}

func TestCtxSwitchRestarts(t *testing.T) {
	recs := []trace.Rec{
		trace.NewRec(0x10000, 4, zarch.KindNone, false, 0, 1),
		trace.NewRec(0x10004, 4, zarch.KindNone, false, 0, 1),
		trace.NewRec(0x50000, 4, zarch.KindNone, false, 0, 2),
		trace.NewRec(0x50004, 4, zarch.KindNone, false, 0, 2),
	}
	st, _ := runFE(t, core.Z15(), DefaultConfig(), recs)
	if st.Instructions != 4 {
		t.Fatalf("retired %d", st.Instructions)
	}
	if st.RestartStall == 0 {
		t.Error("context switch did not charge a restart")
	}
}
