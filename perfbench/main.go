// Command zbpbench is the zbp benchmark: it drives the simulator
// library, one in-process zbpd and an in-process coordinator fleet
// from a single process, checks every output against a library
// reference, and prints one JSON result line.
//
//	zbpbench --workload sweep-local|serve-cell|fleet-sweep --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// run that times calls into each layer from this package's own code
// and reports the per-layer metrics (see README.md). The process
// exits 1 when an output check failed, and 2 without a result line
// when the run itself could not complete or was invalid.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports
// all of them with tracing off. An "operation" is one grid cell on
// sweep-local, one POST /v1/cell on serve-cell and one job (submit to
// result fetched) on fleet-sweep.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"cells_per_s", "cells/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"max_rate_rps", "req/s"},
}

// perLayer is reported by the traced run. A layer the workload never
// reaches reports 0.
var perLayer = append(append(append([]metricDef{}, simLayerMetrics()...), serveLayerMetrics...), fleetLayerMetrics...)

// options are the run parameters shared by every workload.
type options struct {
	seed    uint64
	dur     time.Duration
	trace   bool
	tiny    bool // self-test size: small grids, short phases
	spanDir string
}

type workloadFunc func(ctx context.Context, o options) (*report, error)

var workloads = map[string]workloadFunc{
	"sweep-local": runSweepLocal,
	"serve-cell":  runServeCell,
	"fleet-sweep": runFleetSweep,
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int64
	firstFailure      string
	values            map[string]float64
	spans             *spanLog
}

func newReport(traced bool) *report {
	r := &report{values: map[string]float64{}}
	if traced {
		r.spans = newSpanLog()
	}
	return r
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// check counts one attempted operation and whether its output matched
// the reference.
func (r *report) check(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		if r.firstFailure == "" {
			r.firstFailure = what
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the result for the requested metric set. End-to-end
// metrics must all be measured; per-layer ones a workload does not
// reach are 0.
func (r *report) line(traced bool) (resultLine, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "sweep-local, serve-cell or fleet-sweep")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "zbpbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := options{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		spanDir: ".bench_build/spans",
	}
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zbpbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	if rep.spans != nil {
		path := filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", *name, o.seed))
		if err := rep.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "zbpbench: writing spans: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "zbpbench: %d spans written to %s\n", rep.spans.len(), path)
	}
	line, err := rep.line(o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zbpbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zbpbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !line.Correct {
		fmt.Fprintf(os.Stderr, "zbpbench: %s: %d of %d operations failed the output check; first: %s\n",
			*name, rep.failed, rep.attempted, rep.firstFailure)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- statistics ---------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || xs[lo] == xs[lo+1] {
		return xs[lo]
	}
	if math.IsInf(xs[lo+1], 1) {
		return math.Inf(1)
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianSetup runs setup reps times and returns the last instance,
// its release function and the median wall time. Each earlier instance
// is released before the next one starts.
func medianSetup[T any](reps int, setup func() (T, func(), error)) (T, func(), float64, error) {
	var (
		cur     T
		release = func() {}
		times   []float64
	)
	for i := 0; i < reps; i++ {
		release()
		runtime.GC()
		t0 := time.Now()
		v, rel, err := setup()
		if err != nil {
			return cur, func() {}, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		cur, release = v, rel
	}
	return cur, release, median(times), nil
}

// timeWindows is how many windows a timed phase is split into.
const timeWindows = 5

// timedOp is one completed operation of a timed phase.
type timedOp struct {
	at  time.Time // when it was due (open loop) or started (closed loop)
	lat float64   // ms; +Inf for a failed or refused operation
}

// windows splits a phase of length d from start into k equal windows
// by op time. Latency percentiles and rates are reported as the median
// over windows of each window's figure, so a stall of the shared host
// moves one window rather than the run's result.
func windows(ops []timedOp, start time.Time, d time.Duration, k int) [][]float64 {
	wins := make([][]float64, k)
	for _, o := range ops {
		i := min(max(int(o.at.Sub(start)*time.Duration(k)/d), 0), k-1)
		wins[i] = append(wins[i], o.lat)
	}
	return wins
}

// windowedQuantile is the median over windows of each window's
// q-quantile of latency.
func windowedQuantile(ops []timedOp, start time.Time, d time.Duration, k int, q float64) float64 {
	var per []float64
	for _, w := range windows(ops, start, d, k) {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	if len(per) == 0 {
		return math.Inf(1)
	}
	return median(per)
}

// windowedRate is the median over windows of operations completed per
// second. Each operation counts towards the windows its interval
// [at, at+lat] overlaps, in proportion to the overlap, so a window's
// rate is not rounded to whole operations.
func windowedRate(ops []timedOp, start time.Time, d time.Duration, k int) float64 {
	w := float64(d) / float64(k)
	per := make([]float64, k)
	for _, o := range ops {
		a := float64(o.at.Sub(start))
		l := o.lat * 1e6
		if math.IsInf(l, 1) || l <= 0 {
			per[min(max(int(a/w), 0), k-1)]++
			continue
		}
		for i := max(int(a/w), 0); i < k && float64(i)*w < a+l; i++ {
			lo, hi := max(a, float64(i)*w), min(a+l, float64(i+1)*w)
			if hi > lo {
				per[i] += (hi - lo) / l
			}
		}
	}
	for i := range per {
		per[i] /= w / 1e9
	}
	return median(per)
}

// cpuSeconds is the process's user plus system CPU time. Unlike wall
// time it does not grow while the host runs other tenants' work.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
