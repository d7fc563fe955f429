package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"zbp/internal/sim"
	"zbp/internal/workload"
)

// newTestServer builds a server with test-friendly sizing plus its
// httptest front end, and registers cleanup in the right order
// (listener first, then workers).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// loc is a single box's local executor, for tests that reach past the
// front end.
func loc(s *Server) *local { return s.exec.(*local) }

// parkBlockers submits n tasks straight to s's queue. Each sends on
// started when a worker picks it up, then holds that worker until free
// is called; free releases every blocker and waits for their
// submissions to return. free is idempotent and also registered with
// t.Cleanup after newTestServer's cleanup, so it runs first: a test
// that fails before calling free still releases the workers that
// Close waits for.
func parkBlockers(t *testing.T, s *Server, n int) (started <-chan struct{}, free func()) {
	t.Helper()
	start := make(chan struct{}, n)
	release := make(chan struct{})
	var (
		once sync.Once
		wg   sync.WaitGroup
	)
	free = func() {
		once.Do(func() { close(release) })
		wg.Wait()
	}
	t.Cleanup(free)
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = loc(s).q.submitWait(context.Background(), func(context.Context) {
				start <- struct{}{}
				<-release
			})
		}()
	}
	return start, free
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestSimulateBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Workload:     "loops",
		Instructions: 50_000,
		FullStats:    true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Instructions != 50_000 {
		t.Errorf("retired %d instructions, want 50000", out.Instructions)
	}
	if out.Truncated {
		t.Error("complete run reported truncated")
	}
	if out.Accuracy <= 0.9 || out.Accuracy > 1 {
		t.Errorf("loops accuracy = %v", out.Accuracy)
	}
	if out.Stats == nil || out.Stats.SchemaVersion == 0 {
		t.Error("full_stats did not include a schema-versioned snapshot")
	}

	// The service must agree exactly with a direct library run over
	// the same materialized trace.
	src, err := workload.Make("loops", 42)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunWorkloadCtx(context.Background(), sim.Z15(), src, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if direct.MPKI() != out.MPKI || direct.Cycles != out.Cycles {
		t.Errorf("service (mpki %v, cycles %d) disagrees with direct run (mpki %v, cycles %d)",
			out.MPKI, out.Cycles, direct.MPKI(), direct.Cycles)
	}
}

func TestSimulateSMT2(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Workload:     "loops",
		Workload2:    "micro",
		Instructions: 20_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Instructions != 40_000 {
		t.Errorf("SMT2 retired %d instructions, want 40000 across both threads", out.Instructions)
	}
}

func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInstructions: 100_000, maxBodyBytes: 512})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest},
		{"missing workload", `{}`, http.StatusBadRequest},
		{"unknown config", `{"workload":"loops","config":"z16"}`, http.StatusBadRequest},
		{"over budget", `{"workload":"loops","instructions":200000}`, http.StatusBadRequest},
		{"negative budget", `{"workload":"loops","instructions":-5}`, http.StatusBadRequest},
		{"bad json", `{"workload":`, http.StatusBadRequest},
		{"unknown field", `{"workload":"loops","bogus":1}`, http.StatusBadRequest},
		{"oversized body", `{"workload":"loops","workload2":"` + strings.Repeat("x", 600) + `"}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}
	// GET on a POST route must not run a simulation.
	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate status %d, want 405", resp.StatusCode)
	}
}

// TestDeadlineCancelsRunningSimulation: a request whose deadline is a
// tiny fraction of its simulation time must come back promptly as 504
// with the simulation goroutine gone, not leaked.
func TestDeadlineCancelsRunningSimulation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxInstructions: 5_000_000})
	// Pre-materialize so the request's time is all simulation (the
	// generation itself is not cancellable).
	if _, err := loc(s).mz.Get("lspr", 42, 3_000_000); err != nil {
		t.Fatal(err)
	}
	// Warm up the HTTP connection pool so keep-alive goroutines are in
	// the baseline, then measure with idle connections closed.
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "loops", Instructions: 10_000}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d %s", resp.StatusCode, body)
	}
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Workload:     "lspr",
		Instructions: 3_000_000, // ~1s of simulation
		TimeoutMs:    50,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	// ~1s of work canceled at 50ms must respond well before the
	// uncanceled run could have finished; wide margin for -race.
	if elapsed > 5*time.Second {
		t.Errorf("canceled request took %v", elapsed)
	}

	// The worker must be idle again and nothing leaked.
	waitFor(t, 5*time.Second, func() bool {
		http.DefaultClient.CloseIdleConnections()
		return loc(s).inflight.Load() == 0 && runtime.NumGoroutine() <= before+2
	}, func() string {
		return fmt.Sprintf("inflight %d, goroutines %d (baseline %d)",
			loc(s).inflight.Load(), runtime.NumGoroutine(), before)
	})

	// The worker is free for the next request.
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "loops", Instructions: 10_000})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", resp2.StatusCode, body2)
	}
}

// TestQueueFull429: with every worker busy and the waiting queue at
// capacity, the next submission is rejected with 429 without touching
// a simulation.
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Deterministically saturate: one blocker occupies the worker, one
	// fills the single queue slot.
	_, free := parkBlockers(t, s, 2)
	waitFor(t, 5*time.Second, func() bool {
		return loc(s).q.depth() == 1
	}, func() string { return fmt.Sprintf("queue depth %d", loc(s).q.depth()) })

	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "loops", Instructions: 10_000})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.Rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// Free the queue; service must recover.
	free()
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "loops", Instructions: 10_000})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status %d: %s", resp2.StatusCode, body2)
	}
}

// TestGracefulShutdownDrains: a request in flight when shutdown begins
// completes with a full 200 result; the queue refuses work afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	started := make(chan struct{})
	release := make(chan struct{})
	if err := func() error { // occupy the worker so the HTTP request sits queued
		go func() {
			_ = loc(s).q.submitWait(context.Background(), func(context.Context) {
				close(started)
				<-release
			})
		}()
		select {
		case <-started:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("blocker never started")
		}
	}(); err != nil {
		t.Fatal(err)
	}

	type reply struct {
		code int
		body []byte
	}
	got := make(chan reply, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "loops", Instructions: 20_000})
		got <- reply{resp.StatusCode, body}
	}()
	waitFor(t, 5*time.Second, func() bool {
		return loc(s).q.depth() == 1
	}, func() string { return fmt.Sprintf("queue depth %d", loc(s).q.depth()) })

	// Begin shutdown while the request is queued behind the blocker,
	// then release the blocker so the drain can proceed.
	shutdownDone := make(chan struct{})
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ts.Config.Shutdown(sctx)
		s.Close()
		close(shutdownDone)
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case r := <-got:
		if r.code != http.StatusOK {
			t.Fatalf("in-flight request got %d during shutdown: %s", r.code, r.body)
		}
		var out SimulateResponse
		if err := json.Unmarshal(r.body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Instructions != 20_000 || out.Truncated {
			t.Errorf("drained request result incomplete: %+v", out)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request never completed during shutdown")
	}
	select {
	case <-shutdownDone:
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown never finished")
	}

	// After Close, direct submissions are refused as shutting down.
	if err := loc(s).q.submitWait(context.Background(), func(context.Context) {}); err != errShuttingDown {
		t.Errorf("post-shutdown submit err = %v, want errShuttingDown", err)
	}
}

func TestSweepGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Configs:      []string{"z14", "z15"},
		Workloads:    []string{"loops", "micro"},
		Instructions: 20_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SweepResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(out.Cells))
	}
	for _, c := range out.Cells {
		if c.Error != "" {
			t.Errorf("cell %s/%s: %s", c.Config, c.Workload, c.Error)
		}
		if c.Instructions != 20_000 {
			t.Errorf("cell %s/%s retired %d instructions", c.Config, c.Workload, c.Instructions)
		}
	}
	// Grid order: configs outermost.
	if out.Cells[0].Config != "z14" || out.Cells[3].Config != "z15" {
		t.Errorf("cells out of grid order: %v", out.Cells)
	}
	// Determinism across the service boundary.
	src, _ := workload.Make("loops", 42)
	direct, err := sim.RunWorkloadCtx(context.Background(), sim.Z15(), src, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cells[2].MPKI != direct.MPKI() {
		t.Errorf("sweep z15/loops MPKI %v != direct %v", out.Cells[2].MPKI, direct.MPKI())
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxSweepCells: 4})
	resp, _ := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Configs:   []string{"z13", "z14", "z15"},
		Workloads: []string{"loops", "micro"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized grid status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty grid status %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" {
		t.Errorf("healthz = %v", out)
	}
}

var promLineRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")*\})? (NaN|[-+]?(Inf|[0-9].*))$`)

func TestMetricsEndpointParseable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Produce some traffic first so counters are non-trivial.
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "loops", Instructions: 10_000}); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("suspiciously small exposition:\n%s", body)
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLineRe.MatchString(line) {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
	for _, want := range []string{"zbpd_requests_total", "zbpd_completed_total", "zbpd_queue_depth", "zbpd_mat_traces"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestConcurrentMetricsScrapeRace drives simulations and /metrics
// scrapes concurrently; under -race this proves scrapes don't race
// with live counter updates.
func TestConcurrentMetricsScrapeRace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, _ := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "loops", Instructions: 10_000})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, state func() string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", timeout, state())
}
