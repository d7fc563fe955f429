package sim_test

import (
	"context"
	"testing"

	"zbp/internal/core"
	"zbp/internal/runner"
	"zbp/internal/sim"
	"zbp/internal/workload"
)

// TestGridAllConfigsAllWorkloads is the broad integration net: every
// generation preset runs every workload and must retire all
// instructions with sane metrics. A hang, panic or metric blow-up
// anywhere in the stack fails here. The full grid is fanned out
// through the runner pool, so wall-clock scales with cores; this file
// is an external test package (sim_test) because runner imports sim.
func TestGridAllConfigsAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("grid is slow")
	}
	const n = 25000
	type cell struct{ gen, name string }
	var cells []cell
	var jobs []runner.Job
	for _, gen := range core.Generations() {
		for _, name := range workload.Names() {
			cells = append(cells, cell{gen.Name, name})
			jobs = append(jobs, runner.Job{
				Name:         gen.Name + "/" + name,
				Config:       sim.ForGeneration(gen),
				Source:       runner.Cached(nil, name, 11),
				Instructions: n,
			})
		}
	}
	for i, r := range (&runner.Pool{}).Run(context.Background(), jobs) {
		res, c := r.Res, cells[i]
		t.Run(c.gen+"/"+c.name, func(t *testing.T) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if res.Instructions() < n-1000 {
				t.Fatalf("retired %d of %d", res.Instructions(), n)
			}
			if res.IPC() <= 0.05 || res.IPC() > 8 {
				t.Errorf("implausible IPC %.3f", res.IPC())
			}
			if res.MPKI() < 0 || res.MPKI() > 250 {
				t.Errorf("implausible MPKI %.1f", res.MPKI())
			}
			if res.Accuracy() < 0.3 {
				t.Errorf("implausible accuracy %.3f", res.Accuracy())
			}
			// Dynamic predictions must reconcile: correct + wrong = total.
			th := res.Threads[0]
			if th.DynCorrect+th.DynWrongDir+th.DynWrongTarget != th.DynamicPredicted {
				t.Errorf("dynamic accounting broken: %d+%d+%d != %d",
					th.DynCorrect, th.DynWrongDir, th.DynWrongTarget, th.DynamicPredicted)
			}
			// Branch accounting: every branch was dynamic or surprise.
			if th.DynamicPredicted+th.Surprises != th.Branches {
				t.Errorf("branch accounting broken: %d+%d != %d",
					th.DynamicPredicted, th.Surprises, th.Branches)
			}
		})
	}
}

// TestGridSMT2Pairs runs heterogeneous SMT2 pairs on every generation,
// batched through the runner pool.
func TestGridSMT2Pairs(t *testing.T) {
	if testing.Short() {
		t.Skip("grid is slow")
	}
	const n = 20000
	pairs := [][2]string{{"loops", "micro"}, {"lspr-small", "indirect"}, {"btree", "interp"}}
	var names []string
	var jobs []runner.Job
	for _, gen := range core.Generations() {
		for _, pair := range pairs {
			names = append(names, gen.Name+"/"+pair[0]+"+"+pair[1])
			jobs = append(jobs, runner.Job{
				Name:         pair[0] + "+" + pair[1],
				Config:       sim.ForGeneration(gen),
				Source:       runner.SMT2(pair[0], 5, pair[1], 6),
				Instructions: n,
			})
		}
	}
	for i, r := range (&runner.Pool{}).Run(context.Background(), jobs) {
		r := r
		t.Run(names[i], func(t *testing.T) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			for j, th := range r.Res.Threads {
				if th.Instructions < n-1000 {
					t.Fatalf("thread %d retired %d of %d", j, th.Instructions, n)
				}
			}
		})
	}
}

// TestInterpreterCTBLearnsDispatch: the bytecode dispatch is periodic,
// so the target unit must cover most of its executions.
func TestInterpreterCTBLearnsDispatch(t *testing.T) {
	src, _ := workload.Make("interp", 3)
	res, err := sim.RunWorkloadCtx(context.Background(), sim.Z15(), src, 400000)
	if err != nil {
		t.Fatal(err)
	}
	th := res.Threads[0]
	ctbWrongRate := float64(th.TgtWrong[1]) / float64(max64(th.TgtProvided[1], 1))
	if th.TgtProvided[1] < 1000 {
		t.Errorf("CTB provided only %d dispatch targets", th.TgtProvided[1])
	}
	if ctbWrongRate > 0.5 {
		t.Errorf("CTB wrong rate %.2f on a periodic dispatch", ctbWrongRate)
	}
	if res.Accuracy() < 0.8 {
		t.Errorf("interp accuracy %.3f", res.Accuracy())
	}
}

// TestBTreeHardBranchesBoundAccuracy: six 50/50 compares per lookup are
// irreducible; everything else should be predicted, so accuracy lands
// in a band.
func TestBTreeHardBranchesBoundAccuracy(t *testing.T) {
	src, _ := workload.Make("btree", 3)
	res, err := sim.RunWorkloadCtx(context.Background(), sim.Z15(), src, 400000)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy(); acc < 0.55 || acc > 0.92 {
		t.Errorf("btree accuracy %.3f outside the bimodal band", acc)
	}
	// The CRS must cover the leaf-call returns.
	if res.Tgt.ReturnsMarked == 0 {
		t.Error("no returns detected in btree")
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
