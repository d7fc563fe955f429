package equiv

import (
	"context"
	"fmt"
	"strings"

	"zbp/internal/btb"
	"zbp/internal/metrics"
	"zbp/internal/runner"
	"zbp/internal/sat"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/verif"
	"zbp/internal/workload"
)

// The four exact pairs. Each one re-executes the cell along a
// transformed path and demands byte-identical stats JSON against the
// canonical baseline (a plain packed-cursor RunCtx run). On a mismatch
// the finding names the first diverging metric, so the report reads
// like the golden harness's drift output.

// perturbOne corrupts predictor state before a run: the first
// conditional branch of the trace is preloaded into the BTB1 with its
// BHT counter saturated against the branch's first resolution. This is
// the deliberate-divergence knob (Options.Perturb): a single poisoned
// 2-bit counter must surface as a reported divergence, proving the
// harness end to end. Returns false if the trace has no conditional
// branch to poison.
func perturbOne(s *sim.Sim, p *trace.Packed) bool {
	for i := 0; i < p.Len(); i++ {
		r := p.At(i)
		if !r.Kind().Conditional() {
			continue
		}
		bht := sat.StrongT
		if r.Taken() {
			bht = sat.StrongNT
		}
		tgt := r.Target
		if tgt == 0 {
			tgt = r.Addr + 64
		}
		s.Core().Preload(1, btb.Info{
			Addr: r.Addr, Len: r.Len(), Kind: r.Kind(),
			Target: tgt, BHT: bht, Skoot: btb.SkootUnknown,
		})
		return true
	}
	return false
}

// newSim wires a sim for the transformed side, applying the
// perturbation knob when enabled.
func (env *cellEnv) newSim(srcs []trace.Source) *sim.Sim {
	s := sim.New(env.cfg, srcs)
	if env.opts.Perturb {
		perturbOne(s, env.packed)
	}
	return s
}

// compareExact diffs a transformed run against the baseline and
// reports the first diverging metric.
func (env *cellEnv) compareExact(rep *verif.DiffReport, check, path string, res sim.Result) error {
	js, err := res.StatsJSON()
	if err != nil {
		return err
	}
	if string(js) == string(env.baseJSON) {
		return nil
	}
	diffs := metrics.DiffSnapshots(env.base.StatsSnapshot(), res.StatsSnapshot())
	metric, first := firstDiff(diffs)
	rep.Add(verif.Finding{
		Check: check, Cell: env.cell.Name(), Cycle: -1, Metric: metric,
		Detail: fmt.Sprintf("%s diverges from packed baseline: %s (%d metrics differ)",
			path, first, len(diffs)),
	})
	return nil
}

// firstDiff extracts the metric name from the first DiffSnapshots
// line ("counter sim.cycles: 5 != 6" -> "sim.cycles").
func firstDiff(diffs []string) (metric, detail string) {
	if len(diffs) == 0 {
		// Byte-level difference with no metric drift would mean the
		// serializer itself is nondeterministic.
		return "", "stats JSON bytes differ but no metric drifted (serializer nondeterminism)"
	}
	detail = diffs[0]
	fields := strings.SplitN(detail, " ", 3)
	if len(fields) >= 2 {
		metric = strings.TrimSuffix(fields[1], ":")
	}
	return metric, detail
}

// checkPackedVsStreaming replays the cell from the live generator
// instead of the packed buffer: materialization must be a perfect
// recording (the PR 3 contract, previously a one-off sim test).
func checkPackedVsStreaming(ctx context.Context, env *cellEnv, rep *verif.DiffReport) error {
	src, err := workload.Make(env.cell.Workload, env.cell.Seed)
	if err != nil {
		return err
	}
	s := env.newSim([]trace.Source{trace.Limit(src, env.cell.Instructions)})
	res, err := s.RunCtx(ctx, 0)
	if err != nil {
		return err
	}
	return env.compareExact(rep, "packed-vs-streaming", "streaming generator", res)
}

// checkPool1VsN pushes the cell through runner.Pool at parallelism 1
// and N (several copies, so scheduling actually interleaves): worker
// count must never leak into results, and both must match the direct
// baseline (the old pool determinism test, folded in).
func checkPool1VsN(ctx context.Context, env *cellEnv, rep *verif.DiffReport) error {
	const par, copies = 4, 3
	jobs := make([]runner.Job, copies)
	for i := range jobs {
		jobs[i] = runner.Job{
			Name:         fmt.Sprintf("%s#%d", env.cell.Name(), i),
			Config:       env.cfg,
			Source:       runner.Packed(env.packed),
			Instructions: env.cell.Instructions,
		}
	}
	run := func(p int) ([][]byte, error) {
		results := (&runner.Pool{Parallelism: p}).Run(ctx, jobs)
		out := make([][]byte, len(results))
		for i, r := range results {
			if r.Err != nil {
				return nil, r.Err
			}
			js, err := r.Res.StatsJSON()
			if err != nil {
				return nil, err
			}
			out[i] = js
		}
		return out, nil
	}
	one, err := run(1)
	if err != nil {
		return err
	}
	many, err := run(par)
	if err != nil {
		return err
	}
	for i := range jobs {
		if string(one[i]) != string(many[i]) {
			rep.Addf("pool-1-vs-n", env.cell.Name(), "",
				"job %d differs between Pool{1} and Pool{%d}", i, par)
		}
		if string(one[i]) != string(env.baseJSON) {
			rep.Addf("pool-1-vs-n", env.cell.Name(), "",
				"pooled job %d differs from direct baseline run", i)
		}
	}
	return nil
}

// checkRunVsRunCtx runs the cell with a live, never-firing cancellable
// context: the ctx-poll branch of the cycle loop must be invisible in
// the results.
func checkRunVsRunCtx(ctx context.Context, env *cellEnv, rep *verif.DiffReport) error {
	// A derived cancelable context has a non-nil Done channel, so the
	// loop actually takes the polling path (unlike context.Background).
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cur := env.packed.Cursor()
	res, err := env.newSim([]trace.Source{&cur}).RunCtx(cctx, 0)
	if err != nil {
		return err
	}
	if res.Truncated {
		rep.Addf("run-vs-runctx", env.cell.Name(), "",
			"RunCtx with a never-firing context reported Truncated")
	}
	return env.compareExact(rep, "run-vs-runctx", "RunCtx(cancellable ctx)", res)
}

// countSink tallies the event log by kind and thread.
type countSink struct {
	predicts int64
	fills    int64
	resolves map[int]int64
	wrong    map[int]int64
	dynamic  map[int]int64
	restarts map[int]int64
}

func newCountSink() *countSink {
	return &countSink{
		resolves: map[int]int64{}, wrong: map[int]int64{},
		dynamic: map[int]int64{}, restarts: map[int]int64{},
	}
}

func (s *countSink) Emit(e sim.Event) {
	switch e.Kind {
	case sim.EvPredict:
		s.predicts++
	case sim.EvResolve:
		s.resolves[e.Thread]++
		if !e.Correct {
			s.wrong[e.Thread]++
		}
		if e.Dynamic {
			s.dynamic[e.Thread]++
		}
	case sim.EvRestart:
		s.restarts[e.Thread]++
	case sim.EvFill:
		s.fills++
	}
}

// checkEventReplay attaches an event sink, reruns the cell, and
// crosschecks two ways: attaching the sink must not change the stats
// JSON at all, and the headline counters reconstructed from the event
// stream must equal the Result's aggregates — the decoupled-monitor
// idea of §VII applied to the simulator's own observability layer.
func checkEventReplay(ctx context.Context, env *cellEnv, rep *verif.DiffReport) error {
	const check = "event-replay"
	cur := env.packed.Cursor()
	s := env.newSim([]trace.Source{&cur})
	sink := newCountSink()
	s.SetEventSink(sink)
	res, err := s.RunCtx(ctx, 0)
	if err != nil {
		return err
	}
	if err := env.compareExact(rep, check, "run with event sink attached", res); err != nil {
		return err
	}
	cell := env.cell.Name()
	if sink.predicts != res.Core.Predictions {
		rep.Addf(check, cell, "core.predictions",
			"event log has %d predict events, counters say %d", sink.predicts, res.Core.Predictions)
	}
	for t, st := range res.Threads {
		pfx := fmt.Sprintf("thread%d.", t)
		if sink.resolves[t] != st.Branches {
			rep.Addf(check, cell, pfx+"branches",
				"event log has %d resolves, counters say %d branches", sink.resolves[t], st.Branches)
		}
		if sink.wrong[t] != st.Mispredicts() {
			rep.Addf(check, cell, pfx+"mispredicts",
				"event log has %d incorrect resolves, counters say %d mispredicts", sink.wrong[t], st.Mispredicts())
		}
		if sink.dynamic[t] != st.DynamicPredicted {
			rep.Addf(check, cell, pfx+"dynamic_predicted",
				"event log has %d dynamic resolves, counters say %d", sink.dynamic[t], st.DynamicPredicted)
		}
		if got, want := sink.restarts[t], st.RestartHist.Total(); got != want {
			rep.Addf(check, cell, pfx+"restart_hist",
				"event log has %d restarts, restart histogram holds %d", got, want)
		}
	}
	return nil
}
