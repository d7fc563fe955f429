package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"zbp/internal/server"
)

// The benchmark's self-test: every workload at a tiny size prints
// every metric BENCHMARK.json names, with its unit, and the output
// checks fire on a tampered payload.
//
//	cd perfbench && go test .

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyRun(t *testing.T, name string, traced bool) resultLine {
	t.Helper()
	run, ok := workloads[name]
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %q the program does not have", name)
	}
	rep, err := run(context.Background(), options{
		seed: 7, dur: 1500 * time.Millisecond, trace: traced, tiny: true, spanDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	line, err := rep.line(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted == 0 {
		t.Fatalf("output check: %d of %d failed; first: %s", line.Failed, line.Attempted, rep.firstFailure)
	}
	return line
}

func TestEveryMetricPrintedWithItsUnit(t *testing.T) {
	f := loadBenchFile(t)
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			t.Run(w.Name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				line := tinyRun(t, w.Name, traced)
				names := map[string]bool{}
				for _, m := range want {
					names[m.Name] = true
					got, ok := line.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				for name := range line.Metrics {
					if !names[name] {
						t.Errorf("%s printed but not in BENCHMARK.json", name)
					}
				}
				if traced {
					checkSharesSumToOne(t, w.Name, line)
				}
			})
		}
	}
}

// checkSharesSumToOne: on each traced workload the layer self-time
// shares plus the residual partition the traced operations' time.
func checkSharesSumToOne(t *testing.T, workload string, line resultLine) {
	t.Helper()
	parts := map[string][]string{
		"sweep-local": {"core.share", "frontend.share", "icache.share", "trace.share", "sim.loop_share"},
		"serve-cell":  {"loadgen.wait_share", "http.share", "server.share", "rcache.share"},
		"fleet-sweep": {"backend.share", "cluster.fabric_share"},
	}[workload]
	var total float64
	for _, p := range parts {
		total += line.Metrics[p].Value
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("shares %v sum to %v, want 1", parts, total)
	}
}

func TestModelCountsRepeatExactly(t *testing.T) {
	a := tinyRun(t, "sweep-local", true)
	b := tinyRun(t, "sweep-local", true)
	for _, m := range []string{"model.cycles", "model.mispredicts"} {
		if a.Metrics[m].Value != b.Metrics[m].Value || a.Metrics[m].Value == 0 {
			t.Errorf("%s: %v then %v", m, a.Metrics[m].Value, b.Metrics[m].Value)
		}
	}
}

// tamper alters one counter in every stats payload the handler returns.
func tamper(t *testing.T, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == "/v1/cell" {
			if !bytes.Contains(body, []byte(`"sim.cycles": `)) {
				t.Errorf("no sim.cycles counter to tamper with in %.80s", body)
			}
			body = bytes.Replace(body, []byte(`"sim.cycles": `), []byte(`"sim.cycles": 9`), 1)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body) // a failed write fails the client's check, which is the point
	})
}

func TestTamperedCellPayloadFailsCheck(t *testing.T) {
	ctx := context.Background()
	keys := cellUniverse(7, 1)
	refs, err := serveRefs(ctx, keys, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.CellRequest{SimulateRequest: server.SimulateRequest{
		Config: keys[0].config, Workload: keys[0].workload, Seed: &keys[0].seed, Instructions: 1_000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, lie := range []bool{false, true} {
		var wrap func(http.Handler) http.Handler
		if lie {
			wrap = func(h http.Handler) http.Handler { return tamper(t, h) }
		}
		z, err := startZbpd(zbpdDefaults(), wrap)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(1)
		_, why := postCell(c, z.url, body, "t", refs[0])
		c.CloseIdleConnections()
		z.stop()
		if lie && why == "" {
			t.Error("a tampered stats payload passed the output check")
		}
		if !lie && why != "" {
			t.Errorf("an honest payload failed the output check: %s", why)
		}
	}
}

func TestTamperedBackendFailsJobCheck(t *testing.T) {
	ctx := context.Background()
	pools := [][]uint64{{7000, 7001}}
	refs, err := fleetRefs(ctx, pools, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bootFleet(pools, 1_000, 1, func(_ int, h http.Handler) http.Handler { return tamper(t, h) })
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	j := jobStream(rand.New(rand.NewSource(1)), pools[0], 1_000)()
	want, err := expectedRows(j, refs, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, why := runJob(f.client, f.front.url, j, want); why == "" {
		t.Error("job rows built from tampered backend payloads passed the output check")
	}
}

func TestTamperedSimResultFailsCheck(t *testing.T) {
	tasks := sweepTasks(sweepGrid(), 7)[:1]
	in, err := materializeGrid(tasks, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := sweepRefs(context.Background(), in, tasks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.run(context.Background(), tasks[0])
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res, refs[0]) {
		t.Fatal("an honest rerun failed the output check")
	}
	res.Cycles++
	if sameResult(res, refs[0]) {
		t.Error("a tampered result passed the output check")
	}
	cfg, err := simConfig(tasks[0].cell.config)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := tracedCell(cfg, in.sources(tasks[0].cell, tasks[0].seed), clockOverhead(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.StatsJSON()
	if err != nil || !bytes.Equal(b, refs[0].stats) {
		t.Errorf("traced driver stats differ from sim's (err %v)", err)
	}
}
