package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"zbp/internal/trace"
	"zbp/internal/workload"
	"zbp/internal/zarch"
)

// straightLine returns a branch-free trace of n sequential
// instructions: the degenerate input for the Accuracy/MPKI/IPC edge
// cases.
func straightLine(n int) trace.Source {
	recs := make([]trace.Rec, n)
	addr := zarch.Addr(0x1000)
	for i := range recs {
		recs[i] = trace.NewRec(addr, 4, zarch.KindNone, false, 0, 0)
		addr += 4
	}
	return trace.NewSliceSource(recs)
}

func TestAccuracyBranchFreeTrace(t *testing.T) {
	res := mustRun(t, Z15(), straightLine(5000), 5000)
	if res.Branches() != 0 {
		t.Fatalf("straight-line trace retired %d branches", res.Branches())
	}
	// Zero branches means zero mispredicts: accuracy is 1, not 0.
	if acc := res.Accuracy(); acc != 1 {
		t.Errorf("Accuracy() = %v on a branch-free trace, want 1", acc)
	}
	if mpki := res.MPKI(); mpki != 0 {
		t.Errorf("MPKI() = %v on a branch-free trace, want 0", mpki)
	}
	if ipc := res.IPC(); ipc <= 0 {
		t.Errorf("IPC() = %v on a branch-free trace, want > 0", ipc)
	}
	if res.Truncated {
		t.Error("complete run marked Truncated")
	}
}

func TestDegenerateZeroResult(t *testing.T) {
	// The zero Result (no instructions, no cycles) must not divide by
	// zero anywhere.
	var res Result
	if acc := res.Accuracy(); acc != 1 {
		t.Errorf("zero Result Accuracy() = %v, want 1", acc)
	}
	if mpki := res.MPKI(); mpki != 0 {
		t.Errorf("zero Result MPKI() = %v, want 0", mpki)
	}
	if ipc := res.IPC(); ipc != 0 {
		t.Errorf("zero Result IPC() = %v, want 0", ipc)
	}
}

func TestRunMaxCyclesSetsTruncated(t *testing.T) {
	src, err := workload.Make("lspr", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Z15(), []trace.Source{trace.Limit(src, 1_000_000)})
	res, err := s.RunCtx(context.Background(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("maxCycles-bounded run not marked Truncated")
	}
	if res.Cycles < 5000 {
		t.Errorf("run stopped at %d cycles, want >= 5000", res.Cycles)
	}
	if res.Instructions() == 0 {
		t.Error("truncated run retired no instructions")
	}
}

func TestRunCtxMatchesRun(t *testing.T) {
	mk := func() []trace.Source {
		src, err := workload.Make("micro", 3)
		if err != nil {
			t.Fatal(err)
		}
		return []trace.Source{trace.Limit(src, 100_000)}
	}
	want, err := New(Z15(), mk()).RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A cancellable context takes the loop's ctx-poll branch, which
	// must not change the result.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := New(Z15(), mk()).RunCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(wb) != string(gb) {
		t.Error("RunCtx(cancellable ctx) stats differ from RunCtx(Background)")
	}
}

func TestRunCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, _ := workload.Make("lspr", 1)
	res, err := New(Z15(), []trace.Source{trace.Limit(src, 1_000_000)}).RunCtx(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Truncated {
		t.Error("canceled run not marked Truncated")
	}
	if res.Instructions() != 0 {
		t.Errorf("pre-canceled run retired %d instructions", res.Instructions())
	}
}

func TestRunCtxCancelStopsMidRun(t *testing.T) {
	// A 2M-instruction run takes hundreds of milliseconds; canceling
	// after a few milliseconds must stop it long before completion.
	src, err := workload.Make("lspr", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := New(Z15(), []trace.Source{trace.Limit(src, 2_000_000)}).RunCtx(ctx, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !res.Truncated {
		t.Error("deadline-canceled run not marked Truncated")
	}
	if res.Instructions() >= 2_000_000 {
		t.Error("canceled run retired the full trace")
	}
	// Generous bound: the run itself needs ~100x longer than the
	// deadline, so finishing quickly proves cancellation worked.
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}
