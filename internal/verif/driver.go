package verif

import (
	"fmt"

	"zbp/internal/core"
	"zbp/internal/frontend"
	"zbp/internal/hashx"
	"zbp/internal/trace"
	"zbp/internal/workload"
	"zbp/internal/zarch"
)

// Params constrain the random stimulus, playing the role of the
// paper's §VII parameter files: "constraints restrict the random
// behavior of drivers and allow the user to determine the probability
// of certain events".
type Params struct {
	Seed uint64
	// Funcs scales the code footprint of the generated program.
	Funcs int
	// Instructions bounds the stimulus length.
	Instructions int
	// CheckpointEvery is the crosscheck cadence in cycles.
	CheckpointEvery int64
	// Preload seeds the BTB1/BTB2 with the program's branches before
	// simulation starts, reaching states "which would otherwise be
	// difficult to get to" (§VII). 0 disables; 1 preloads BTB2 only;
	// 2 preloads both levels.
	Preload int
	// Config selects the design under test.
	Config core.Config
}

// DefaultParams returns a medium-size constrained-random setup.
func DefaultParams(seed uint64) Params {
	return Params{
		Seed: seed, Funcs: 64, Instructions: 200000,
		CheckpointEvery: 5000, Preload: 0, Config: core.Z15(),
	}
}

// Report summarizes one constrained-random run.
type Report struct {
	Instructions int64
	Cycles       int64
	Checks       int64
	Errors       []Error
}

// Failed reports whether any crosscheck failed.
func (r Report) Failed() bool { return len(r.Errors) > 0 }

func (r Report) String() string {
	return fmt.Sprintf("verif: %d instructions, %d cycles, %d checks, %d errors",
		r.Instructions, r.Cycles, r.Checks, len(r.Errors))
}

// RunRandom executes one constrained-random verification run: generate
// a random program under the constraints, optionally preload the
// predictor arrays, attach the white-box harness, simulate, and
// crosscheck at checkpoints.
func RunRandom(p Params) Report {
	src := workload.LSPR(p.Seed, max(p.Funcs, 8), 1.0)
	c := core.New(p.Config)
	h := Attach(c)

	if p.Preload > 0 {
		preloadFromTrace(c, p, src)
		// Rebuild the source so the run starts from the beginning.
		src = workload.LSPR(p.Seed, max(p.Funcs, 8), 1.0)
	}

	fe := frontend.NewThread(frontend.DefaultConfig(), 0, c, nil,
		trace.Limit(src, p.Instructions))
	var nextCheck int64 = p.CheckpointEvery
	for i := 0; i < 100*p.Instructions && !fe.Done(); i++ {
		c.Cycle()
		fe.Step(c.Clock())
		if c.Clock() >= nextCheck {
			h.Checkpoint()
			nextCheck += p.CheckpointEvery
		}
	}
	h.Checkpoint()
	st := fe.Stats()
	return Report{
		Instructions: st.Instructions,
		Cycles:       c.Clock(),
		Checks:       h.Checks(),
		Errors:       h.Errors(),
	}
}

// preloadFromTrace walks a prefix of the stimulus and installs every
// taken branch it finds into the predictor arrays (§VII preloading:
// "loading these arrays either from a static test case with a
// predetermined instruction stream, or from a dynamic test").
func preloadFromTrace(c *core.Core, p Params, src trace.Source) {
	rng := hashx.New(p.Seed ^ 0xbead)
	seen := map[zarch.Addr]bool{}
	for i := 0; i < p.Instructions/2; i++ {
		r, ok := src.Next()
		if !ok {
			break
		}
		if !r.IsBranch() || !r.Taken() || seen[r.Addr] {
			continue
		}
		seen[r.Addr] = true
		info := core.SurpriseInfo(r.Addr, r.Len(), r.Kind(), r.Target, r.Taken())
		c.Preload(2, info)
		if p.Preload >= 2 && rng.Bool(0.5) {
			c.Preload(1, info)
		}
	}
}
