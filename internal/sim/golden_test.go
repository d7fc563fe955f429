package sim_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zbp/internal/core"
	"zbp/internal/metrics"
	"zbp/internal/runner"
	"zbp/internal/sim"
)

// update rewrites the golden stats files instead of comparing:
//
//	go test ./internal/sim -run Golden -update
//
// Review the resulting diff like any other code change — every drifted
// counter is a behavior change in the model.
var update = flag.Bool("update", false, "rewrite golden stats files")

// goldenRuns pins the regression matrix: every generational preset
// over the headline workload at a fixed seed and scale. Small enough
// to run in the ordinary test suite, broad enough that any change to
// MPKI, provider shares, restart accounting or cache behavior moves at
// least one counter.
const (
	goldenSeed     = 42
	goldenScale    = 150_000
	goldenWorkload = "lspr"
)

func goldenJobs() []runner.Job {
	var jobs []runner.Job
	for _, gen := range core.Generations() {
		jobs = append(jobs, runner.Job{
			Name:         gen.Name,
			Config:       sim.ForGeneration(gen),
			Source:       runner.Cached(nil, goldenWorkload, goldenSeed),
			Instructions: goldenScale,
		})
	}
	return jobs
}

// TestGoldenStats replays the pinned matrix and compares each run's
// serialized stats snapshot byte-for-byte against the checked-in
// golden. A mismatch means predictor behavior drifted: either fix the
// regression or, for an intentional change, re-run with -update and
// commit the new goldens alongside the change that caused them.
func TestGoldenStats(t *testing.T) {
	results := runner.Results((&runner.Pool{}).Run(context.Background(), goldenJobs()))
	for i := range results {
		res := results[i]
		t.Run(res.Name, func(t *testing.T) {
			got, err := res.StatsJSON()
			if err != nil {
				t.Fatalf("serializing stats: %v", err)
			}
			path := filepath.Join("testdata", "golden",
				fmt.Sprintf("%s-%s.json", res.Name, goldenWorkload))
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(got) == string(want) {
				return
			}
			// Byte mismatch: decode both and report per-metric diffs so
			// the failure names the drifted counters, not a wall of JSON.
			var gotSnap, wantSnap metrics.Snapshot
			if err := unmarshalSnapshot(got, &gotSnap); err != nil {
				t.Fatalf("decoding new snapshot: %v", err)
			}
			if err := unmarshalSnapshot(want, &wantSnap); err != nil {
				t.Fatalf("decoding golden snapshot: %v", err)
			}
			diffs := metrics.DiffSnapshots(wantSnap, gotSnap)
			if len(diffs) == 0 {
				t.Fatalf("stats JSON bytes differ but decode equal; non-canonical golden? re-run with -update")
			}
			max := 25
			if len(diffs) < max {
				max = len(diffs)
			}
			for _, d := range diffs[:max] {
				t.Errorf("drift (golden != current): %s", d)
			}
			if len(diffs) > max {
				t.Errorf("... and %d more drifted metrics", len(diffs)-max)
			}
			t.Errorf("%d metric(s) drifted from %s; if intentional, refresh with: go test ./internal/sim -run Golden -update", len(diffs), path)
		})
	}
}

func unmarshalSnapshot(b []byte, s *metrics.Snapshot) error {
	return json.Unmarshal(b, s)
}

// TestGoldenDeterminism guards the property the golden harness depends
// on: re-running the same job yields byte-identical stats JSON.
func TestGoldenDeterminism(t *testing.T) {
	job := goldenJobs()[0]
	a := runner.Results((&runner.Pool{}).Run(context.Background(), []runner.Job{job}))[0]
	b := runner.Results((&runner.Pool{}).Run(context.Background(), []runner.Job{job}))[0]
	aj, err := a.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatal("identical jobs serialized differently")
	}
}
