// Package tune is the design-space exploration environment of the
// paper's §VII: "a parameterizable, sizeable performance modeling
// environment was created ... to evaluate the performance of different
// design options", with instruction traces as input. A Study takes a
// base configuration, a set of parameter axes, and a workload mix; it
// runs the full cartesian product (in parallel) and ranks the design
// points. This is how the repository's generational presets were
// sanity-checked, and it is the tool a user would reach for to answer
// "what if the BTB1 were 32K?" questions.
package tune

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"zbp/internal/hashx"
	"zbp/internal/runner"
	"zbp/internal/sim"
	"zbp/internal/workload"
)

// Value is one setting on an axis.
type Value struct {
	// Label names the setting in reports ("16K", "off", ...).
	Label string
	// Apply mutates a config to select the setting.
	Apply func(*sim.Config)
}

// Axis is one design parameter with its candidate settings.
type Axis struct {
	Name   string
	Values []Value
}

// Outcome is one evaluated design point.
type Outcome struct {
	// Labels holds the chosen Value label per axis, in axis order.
	Labels []string
	// PerWorkload maps workload name to its result.
	PerWorkload map[string]sim.Result
	// MPKI and IPC are averaged across the workload mix.
	MPKI float64
	IPC  float64
	// Score is the study's objective (higher is better).
	Score float64
}

// Name renders the point as "axis=value axis=value".
func (o Outcome) Name(axes []Axis) string {
	parts := make([]string, len(o.Labels))
	for i, l := range o.Labels {
		parts[i] = axes[i].Name + "=" + l
	}
	return strings.Join(parts, " ")
}

// Study describes one exploration.
type Study struct {
	// Base is the starting configuration each point mutates.
	Base sim.Config
	// Axes are the swept parameters (cartesian product).
	Axes []Axis
	// Workloads is the evaluation mix (averaged).
	Workloads []string
	// Instructions per workload run.
	Instructions int
	// Seed makes the study reproducible.
	Seed uint64
	// Score is the objective; nil means IPC - MPKI/100 (throughput
	// first, accuracy as tiebreak).
	Score func(avgMPKI, avgIPC float64) float64
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int
}

// points enumerates the cartesian product of axis values.
func (s *Study) points() [][]int {
	if len(s.Axes) == 0 {
		return [][]int{{}}
	}
	var out [][]int
	idx := make([]int, len(s.Axes))
	for {
		out = append(out, append([]int(nil), idx...))
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(s.Axes[k].Values) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return out
		}
	}
}

// Size returns the number of design points.
func (s *Study) Size() int {
	n := 1
	for _, a := range s.Axes {
		n *= len(a.Values)
	}
	return n
}

// Run evaluates every design point and returns outcomes sorted by
// Score (best first). It panics on structural errors (empty axes) and
// on a failed simulation (unknown workload).
func (s *Study) Run() []Outcome {
	if len(s.Workloads) == 0 || s.Instructions <= 0 {
		panic("tune: study needs workloads and a positive instruction budget")
	}
	for _, a := range s.Axes {
		if len(a.Values) == 0 {
			panic(fmt.Sprintf("tune: axis %q has no values", a.Name))
		}
	}
	score := s.Score
	if score == nil {
		score = func(mpki, ipc float64) float64 { return ipc - mpki/100 }
	}

	// One job per (design point, workload) cell: the pool is fed the
	// whole study at once, so a point with one slow workload does not
	// idle a worker, and the bounded pool replaces the old
	// goroutine-per-point fan-out. Every job draws its trace from one
	// Materializer: the workers pack each workload once, when its first
	// job starts, and the whole cartesian product replays that buffer.
	mz := workload.NewMaterializer()
	pts := s.points()
	jobs := make([]runner.Job, 0, len(pts)*len(s.Workloads))
	labels := make([][]string, len(pts))
	for i, pt := range pts {
		cfg := s.Base
		labels[i] = make([]string, len(pt))
		for k, vi := range pt {
			v := s.Axes[k].Values[vi]
			labels[i][k] = v.Label
			v.Apply(&cfg)
		}
		for _, w := range s.Workloads {
			jobs = append(jobs, runner.Job{
				Name:   w,
				Config: cfg,
				// Each workload gets its own derived seed: reusing the
				// study seed verbatim made every workload's generator draw
				// the identical random stream, correlating cells across
				// workloads. Every design point still replays the same
				// per-workload trace, so cross-point comparisons stay
				// exact.
				Source:       runner.Cached(mz, w, hashx.SeedFor(s.Seed, w)),
				Instructions: s.Instructions,
			})
		}
	}
	pool := runner.Pool{Parallelism: s.Parallelism}
	results := runner.Results(pool.Run(context.Background(), jobs))

	outcomes := make([]Outcome, len(pts))
	for i := range pts {
		out := Outcome{Labels: labels[i], PerWorkload: make(map[string]sim.Result, len(s.Workloads))}
		var mpki, ipc float64
		for j, w := range s.Workloads {
			res := results[i*len(s.Workloads)+j]
			out.PerWorkload[w] = res
			mpki += res.MPKI()
			ipc += res.IPC()
		}
		out.MPKI = mpki / float64(len(s.Workloads))
		out.IPC = ipc / float64(len(s.Workloads))
		out.Score = score(out.MPKI, out.IPC)
		outcomes[i] = out
	}

	sort.SliceStable(outcomes, func(a, b int) bool {
		return outcomes[a].Score > outcomes[b].Score
	})
	return outcomes
}

// StandardAxes returns the ready-made axes the CLI exposes, keyed by
// name: the capacity and policy levers the paper's design discussion
// turns on.
func StandardAxes() map[string]Axis {
	mk := func(name string, vals ...Value) Axis { return Axis{Name: name, Values: vals} }
	return map[string]Axis{
		"btb1": mk("btb1",
			Value{"4K", func(c *sim.Config) { c.Core.BTB1.RowBits = 9 }},
			Value{"8K", func(c *sim.Config) { c.Core.BTB1.RowBits = 10 }},
			Value{"16K", func(c *sim.Config) { c.Core.BTB1.RowBits = 11 }},
			Value{"32K", func(c *sim.Config) { c.Core.BTB1.RowBits = 12 }},
		),
		"btb2": mk("btb2",
			Value{"off", func(c *sim.Config) { c.Core.BTB2Enabled = false }},
			Value{"64K", func(c *sim.Config) { c.Core.BTB2.RowBits = 14 }},
			Value{"128K", func(c *sim.Config) { c.Core.BTB2.RowBits = 15 }},
		),
		"pht": mk("pht",
			Value{"off", func(c *sim.Config) { c.Core.Dir.PHTEnabled = false }},
			Value{"single", func(c *sim.Config) { c.Core.Dir.TwoTables = false }},
			Value{"tage", func(c *sim.Config) { c.Core.Dir.TwoTables = true }},
		),
		"gpv": mk("gpv",
			Value{"9", func(c *sim.Config) {
				c.Core.GPVDepth = 9
				c.Core.Dir.LongHist = 9
				c.Core.Tgt.CTBHist = 9
			}},
			Value{"17", func(c *sim.Config) {
				c.Core.GPVDepth = 17
				c.Core.Dir.LongHist = 17
				c.Core.Tgt.CTBHist = 17
			}},
		),
		"perceptron": mk("perceptron",
			Value{"off", func(c *sim.Config) { c.Core.Dir.PerceptronEnabled = false }},
			Value{"on", func(c *sim.Config) { c.Core.Dir.PerceptronEnabled = true }},
		),
		"crs": mk("crs",
			Value{"off", func(c *sim.Config) { c.Core.Tgt.CRSEnabled = false }},
			Value{"on", func(c *sim.Config) { c.Core.Tgt.CRSEnabled = true }},
		),
		"skoot": mk("skoot",
			Value{"off", func(c *sim.Config) { c.Core.SkootEnabled = false }},
			Value{"on", func(c *sim.Config) { c.Core.SkootEnabled = true }},
		),
		"specdir": mk("specdir",
			Value{"0", func(c *sim.Config) { c.Core.Dir.SpecEntries = 0 }},
			Value{"8", func(c *sim.Config) { c.Core.Dir.SpecEntries = 8 }},
			Value{"16", func(c *sim.Config) { c.Core.Dir.SpecEntries = 16 }},
		),
		"crsdist": mk("crsdist",
			Value{"4K", func(c *sim.Config) { c.Core.Tgt.DistThreshold = 4 << 10 }},
			Value{"16K", func(c *sim.Config) { c.Core.Tgt.DistThreshold = 16 << 10 }},
			Value{"64K", func(c *sim.Config) { c.Core.Tgt.DistThreshold = 64 << 10 }},
		),
	}
}
