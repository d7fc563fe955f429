// Package exp implements the reproduction experiments E1..E12 indexed
// in DESIGN.md: one regenerator per table/figure/result of the paper.
// Each experiment runs simulations and writes a self-describing report;
// cmd/zexp drives them and EXPERIMENTS.md records their output against
// the paper's claims.
package exp

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"zbp/internal/btb"
	"zbp/internal/core"
	"zbp/internal/hashx"
	"zbp/internal/runner"
	"zbp/internal/sat"
	"zbp/internal/sim"
	"zbp/internal/workload"
	"zbp/internal/zarch"
)

// Options control experiment scale.
type Options struct {
	// W receives the report.
	W io.Writer
	// Scale is the instruction budget per simulation (default 1M).
	Scale int
	// Seed makes runs reproducible.
	Seed uint64
	// Seeds is the number of workload seeds the headline experiment
	// averages over (default 1); more seeds reduce layout luck.
	Seeds int
	// Parallelism bounds concurrent simulations within an experiment
	// (0 = all cores). Results are identical at any setting: the
	// runner pool is deterministic and order-preserving.
	Parallelism int
	// ID labels the experiment in stats-file names; cmd/zexp sets it
	// to the experiment's ID before calling Run.
	ID string
	// StatsDir, when non-empty, makes every runner batch serialize each
	// simulation's schema-versioned stats snapshot into this directory
	// as <id>-b<batch>-j<job>-<name>.json, so experiment runs can be
	// diffed in CI. The directory must exist.
	StatsDir string
	// Workloads, when non-empty, overrides the headline MPKI
	// experiment's workload list. Any name the stack accepts works,
	// including file:<path> traces and spec:<path> mixes — the hook for
	// running the generational comparison over ingested external traces.
	Workloads []string
	// Mat, when non-nil, shares packed traces across jobs: each
	// (workload, seed, scale) is generated and packed once while it
	// stays resident — across every experiment handed the same
	// Materializer — and all sweep points replay cursors over the
	// shared buffer. With Mat nil every job packs its own trace.
	// Results are byte-identical either way; only wall clock and
	// allocation behavior change.
	Mat *workload.Materializer
	// batchSeq numbers runner batches within one experiment for stable
	// stats-file names; set via WithStats.
	batchSeq *int
}

// WithStats returns o with stats serialization into dir enabled for
// experiment id.
func (o Options) WithStats(dir, id string) Options {
	o.StatsDir = dir
	o.ID = id
	o.batchSeq = new(int)
	return o
}

func (o Options) seeds() int {
	if o.Seeds <= 0 {
		return 1
	}
	return o.Seeds
}

func (o Options) scale() int {
	if o.Scale <= 0 {
		return 1_000_000
	}
	return o.Scale
}

// Experiment is one reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Paper string // what in the paper it reproduces
	Run   func(Options)
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Structure sizes by generation + BTB capacity sweep", "Table 1, §II.A/§III", E1Table1},
		{"restart", "Restart penalty accounting", "Figure 1, §I/§II.B/§II.D", E2Restart},
		{"fig4", "Taken-branch period without CPRED", "Figure 4, §IV", E3Fig4},
		{"fig5", "Taken-branch period with CPRED; SMT2 port sharing", "Figures 5-7, §IV", E4Fig5},
		{"fig8", "Direction-provider shares and accuracy", "Figure 8, §V", E5Fig8},
		{"fig9", "Target-provider shares and wrong-target rates", "Figure 9, §VI", E6Fig9},
		{"mpki", "Generational MPKI (headline result)", "§VIII: z13->z14 -9.6%, z14->z15 -25%", E7MPKI},
		{"btb2", "Two-level BTB value and periodic refresh", "§III", E8BTB2},
		{"prefetch", "Lookahead search as I-cache prefetcher", "§IV", E9Prefetch},
		{"sbht", "Speculative BHT/PHT weak-loop pathology", "§IV", E10SBHT},
		{"ablation", "z15 feature ablations", "§IV-§VI design choices", E11Ablation},
		{"power", "CPRED power gating of auxiliary structures", "§IV/§VI", E12Power},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// job builds one pool job for the named workload at experiment scale.
// The worker draws the packed trace from o.Mat when the job starts, so
// a batch holds only the traces of its running jobs plus the bounded
// cache. The caller's seed is decorrelated per workload name (see
// hashx.SeedFor) so experiments sweeping several workloads from one
// base seed don't feed every generator the same random stream;
// explicit offsets (E7's per-generation reseeding) compose on top.
func job(o Options, cfg sim.Config, name string, seed uint64) runner.Job {
	return runner.Job{
		Name:         name,
		Config:       cfg,
		Source:       runner.Cached(o.Mat, name, hashx.SeedFor(seed, name)),
		Instructions: o.scale(),
	}
}

// runBatch fans jobs out across the experiment's runner pool and
// returns results in job order; a failed job (unknown workload, model
// bug) panics, matching runOn. With StatsDir set, every result's
// stats snapshot is serialized for machine diffing.
func runBatch(o Options, jobs []runner.Job) []sim.Result {
	pool := runner.Pool{Parallelism: o.Parallelism}
	results := runner.Results(pool.Run(context.Background(), jobs))
	if o.StatsDir != "" {
		batch := 0
		if o.batchSeq != nil {
			*o.batchSeq++
			batch = *o.batchSeq
		}
		for j, res := range results {
			name := fmt.Sprintf("%s-b%02d-j%02d-%s.json", o.ID, batch, j, sanitizeName(jobs[j].Name))
			if err := writeStatsFile(filepath.Join(o.StatsDir, name), &res); err != nil {
				panic(fmt.Errorf("exp: writing stats %s: %w", name, err))
			}
		}
	}
	return results
}

// sanitizeName maps a job name to a filesystem-safe token.
func sanitizeName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func writeStatsFile(path string, res *sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteStatsJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// header prints a section banner.
func header(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", e.ID, e.Title)
	fmt.Fprintf(w, "reproduces: %s\n\n", e.Paper)
}

// loopCore preloads a two-branch loop into c's BTB1, a's branch
// jumping to b and b's back to a, and restarts thread t at a: the bare
// core behind the figures 4-7 timing.
func loopCore(c *core.Core, t int, a, b zarch.Addr) {
	branch := func(from, to zarch.Addr) btb.Info {
		return btb.Info{Addr: from + 8, Len: 4, Kind: zarch.KindUncondRel,
			Target: to, BHT: sat.StrongT, Skoot: btb.SkootUnknown}
	}
	c.Preload(1, branch(a, b))
	c.Preload(1, branch(b, a))
	c.Restart(t, a, uint16(t))
}

// takenPeriod measures the steady-state cycle gap between consecutive
// predicted-taken branches in a two-branch loop on a bare core
// (figures 4-7 timing).
func takenPeriod(cfg core.Config, smt2 bool) float64 {
	c := core.New(cfg)
	loopCore(c, 0, 0x10000, 0x40000)
	if smt2 {
		loopCore(c, 1, 0x90000, 0xc0000)
	}
	var times []int64
	warm, meas := 60, 120
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
		if smt2 {
			for {
				if _, ok := c.PopPred(1); !ok {
					break
				}
			}
		}
	}
	return float64(times[len(times)-1]-times[warm]) / float64(len(times)-1-warm)
}
