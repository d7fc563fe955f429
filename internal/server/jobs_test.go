package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"zbp/internal/jobs"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
)

// tclock is a lock-guarded fake clock injected through Config.now to
// drive job TTL eviction deterministically.
type tclock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *tclock { return &tclock{t: time.Unix(1_700_000_000, 0)} }
func (c *tclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}
func (c *tclock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// submitJob posts a job and checks the 201 contract (Location header,
// queued-or-later state, ID present).
func submitJob(t *testing.T, ts *httptest.Server, req JobRequest) jobs.Status {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit body %q: %v", body, err)
	}
	if st.ID == "" {
		t.Fatal("submit response has no job ID")
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location %q, want /v1/jobs/%s", loc, st.ID)
	}
	return st
}

// getJob polls one job snapshot.
func getJob(t *testing.T, ts *httptest.Server, id string) (int, jobs.Status) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("job body %q: %v", body, err)
		}
	}
	return resp.StatusCode, st
}

// waitJob polls until the job reaches want, failing fast on a
// different terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.Status {
	t.Helper()
	var last jobs.Status
	waitFor(t, 30*time.Second, func() bool {
		code, st := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		last = st
		if st.State.Terminal() && st.State != want {
			t.Fatalf("job reached %s (err %q), want %s", st.State, st.Error, want)
		}
		return st.State == want
	}, func() string { return fmt.Sprintf("job stuck in %s", last.State) })
	return last
}

// readEventLines drains a job's event stream to EOF, decoding every
// JSONL line.
func readEventLines(t *testing.T, ts *httptest.Server, id string) []map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type %q", ct)
	}
	var out []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + name + `(?:\{[^}]*\})? (\S+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not exported:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestJobSimulateLifecycle: submit -> poll -> done, with the result
// agreeing with the synchronous endpoint for the same cell.
func TestJobSimulateLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := SimulateRequest{Workload: "loops", Instructions: 50_000, FullStats: true}

	st := submitJob(t, ts, JobRequest{Simulate: &req})
	if st.Kind != "simulate" {
		t.Errorf("kind %q", st.Kind)
	}
	done := waitJob(t, ts, st.ID, jobs.Done)
	if done.Progress.CellsTotal != 1 || done.Progress.CellsDone != 1 {
		t.Errorf("progress %+v", done.Progress)
	}
	var jobResp SimulateResponse
	if err := json.Unmarshal(done.Result, &jobResp); err != nil {
		t.Fatalf("result %q: %v", done.Result, err)
	}

	syncHTTP, syncBody := postJSON(t, ts.URL+"/v1/simulate", req)
	if syncHTTP.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d", syncHTTP.StatusCode)
	}
	var syncResp SimulateResponse
	if err := json.Unmarshal(syncBody, &syncResp); err != nil {
		t.Fatal(err)
	}
	// Determinism makes the async and sync answers comparable field by
	// field — same cell, same numbers.
	if jobResp.Cycles != syncResp.Cycles || jobResp.Instructions != syncResp.Instructions ||
		jobResp.MPKI != syncResp.MPKI || jobResp.IPC != syncResp.IPC {
		t.Errorf("async %+v disagrees with sync %+v", jobResp, syncResp)
	}
	if jobResp.Stats == nil || len(jobResp.Stats.Counters) == 0 {
		t.Error("full_stats job result missing the snapshot")
	}
}

// TestJobSweepEventsStream: the JSONL stream replays queued/running
// status, one cell event per grid point in order, and a final done
// event — then terminates.
func TestJobSweepEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := submitJob(t, ts, JobRequest{Sweep: &SweepRequest{
		Workloads:    []string{"loops", "micro"},
		Seeds:        []uint64{1, 2},
		Instructions: 20_000,
	}})
	waitJob(t, ts, st.ID, jobs.Done)

	events := readEventLines(t, ts, st.ID)
	var states, cells []string
	var lastDone map[string]any
	for _, e := range events {
		switch e["type"] {
		case "status":
			states = append(states, e["state"].(string))
		case "cell":
			cells = append(cells, fmt.Sprintf("%v/%v/%v", e["workload"], e["workload2"], e["seed"]))
			if e["error"] != nil {
				t.Errorf("cell error %v", e["error"])
			}
		case "done":
			lastDone = e
		}
	}
	if len(states) != 2 || states[0] != "queued" || states[1] != "running" {
		t.Errorf("status events %v", states)
	}
	want := []string{
		"loops/<nil>/1", "loops/<nil>/2",
		"micro/<nil>/1", "micro/<nil>/2",
	}
	if fmt.Sprint(cells) != fmt.Sprint(want) {
		t.Errorf("cell order %v, want %v", cells, want)
	}
	if lastDone == nil || lastDone["state"] != "done" {
		t.Errorf("final event %v", lastDone)
	}
	if events[len(events)-1]["type"] != "done" {
		t.Error("stream did not end with the done event")
	}
}

// TestJobValidation: malformed submissions are rejected at the door,
// before any table slot or queue time is spent.
func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"no payload", JobRequest{}},
		{"two payloads", JobRequest{
			Simulate: &SimulateRequest{Workload: "loops"},
			Sweep:    &SweepRequest{Workloads: []string{"loops"}},
		}},
		{"kind mismatch", JobRequest{Kind: "sweep", Simulate: &SimulateRequest{Workload: "loops"}}},
		{"unknown workload", JobRequest{Simulate: &SimulateRequest{Workload: "nope"}}},
		{"over budget", JobRequest{Simulate: &SimulateRequest{Workload: "loops", Instructions: 1 << 40}}},
		{"unknown diff check", JobRequest{Diff: &DiffRequest{Workloads: []string{"loops"}, Checks: []string{"bogus"}}}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, body)
		}
	}
	if n := metricValue(t, ts, "zbpd_jobs_submitted_total"); n != 0 {
		t.Errorf("rejected submissions counted as jobs: %v", n)
	}
}

// TestJobTableFull429: a full job table answers 429 with Retry-After;
// finished-but-unexpired jobs hold their slots.
func TestJobTableFull429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxJobs: 1})
	st := submitJob(t, ts, JobRequest{Simulate: &SimulateRequest{Workload: "loops", Instructions: 10_000}})
	waitJob(t, ts, st.ID, jobs.Done)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Simulate: &SimulateRequest{Workload: "loops", Instructions: 10_000},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
}

// TestJobTTLEviction: past the TTL a finished job 404s, frees its
// table slot, and counts as evicted.
func TestJobTTLEviction(t *testing.T) {
	clk := newClock()
	_, ts := newTestServer(t, Config{Workers: 1, MaxJobs: 1, JobTTL: time.Minute, now: clk.now})
	st := submitJob(t, ts, JobRequest{Simulate: &SimulateRequest{Workload: "loops", Instructions: 10_000}})
	waitJob(t, ts, st.ID, jobs.Done)

	clk.advance(59 * time.Second)
	if code, _ := getJob(t, ts, st.ID); code != http.StatusOK {
		t.Fatalf("pre-TTL poll status %d", code)
	}
	clk.advance(2 * time.Second)
	if code, _ := getJob(t, ts, st.ID); code != http.StatusNotFound {
		t.Fatalf("post-TTL poll status %d, want 404", code)
	}
	if n := metricValue(t, ts, "zbpd_jobs_evicted_total"); n != 1 {
		t.Errorf("evicted = %v, want 1", n)
	}
	// The slot is free again.
	st2 := submitJob(t, ts, JobRequest{Simulate: &SimulateRequest{Workload: "loops", Instructions: 10_000}})
	waitJob(t, ts, st2.ID, jobs.Done)
}

// TestJobCancelWhileQueued: DELETE on a job still waiting for a queue
// slot cancels it without it ever simulating; the event stream
// terminates with the canceled event.
func TestJobCancelWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// Occupy the only worker so the job stays queued.
	started, free := parkBlockers(t, s, 1)
	<-started

	st := submitJob(t, ts, JobRequest{Simulate: &SimulateRequest{Workload: "loops", Instructions: 10_000}})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	// The cancel has landed (DELETE answered); free the worker so it
	// reaches the queued task and skips its dead context.
	free()

	canceled := waitJob(t, ts, st.ID, jobs.Canceled)
	if canceled.Progress.CellsDone != 0 {
		t.Errorf("canceled-while-queued job did work: %+v", canceled.Progress)
	}
	events := readEventLines(t, ts, st.ID)
	last := events[len(events)-1]
	if last["type"] != "done" || last["state"] != "canceled" {
		t.Errorf("final event %v", last)
	}
	if metricValue(t, ts, "zbpd_instructions_total") != 0 {
		t.Error("canceled job started a compute")
	}
}

// TestJobEventsSlowReaderNoDeadlock is the regression test for the
// locking contract: a subscriber that never reads its stream must not
// block job execution, other pollers, cancellation, or shutdown —
// publishers signal subscribers without holding locks across writes.
func TestJobEventsSlowReaderNoDeadlock(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := submitJob(t, ts, JobRequest{Sweep: &SweepRequest{
		Workloads:    []string{"loops", "micro"},
		Seeds:        []uint64{1, 2, 3},
		Instructions: 20_000,
	}})

	// Open the stream and stall: never read a byte.
	stalled, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Body.Close()

	// The job must complete normally with the reader wedged.
	done := waitJob(t, ts, st.ID, jobs.Done)
	if done.Progress.CellsDone != 6 {
		t.Errorf("progress %+v", done.Progress)
	}
	// A second, healthy reader drains the full history concurrently.
	events := readEventLines(t, ts, st.ID)
	if events[len(events)-1]["type"] != "done" {
		t.Error("healthy reader did not get the done event")
	}
}

// TestJobCacheHitResubmission is the headline acceptance test: a
// resubmitted identical sweep is served entirely from the result
// cache — zero simulated cycles, proven by the cache and
// simulated-instruction counters and by the job's own progress
// accounting.
func TestJobCacheHitResubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	sweep := SweepRequest{
		Workloads:    []string{"loops", "micro"},
		Seeds:        []uint64{1, 2},
		Instructions: 100_000,
	}

	first := submitJob(t, ts, JobRequest{Sweep: &sweep})
	firstDone := waitJob(t, ts, first.ID, jobs.Done)
	if firstDone.Progress.CellsCached != 0 {
		t.Fatalf("cold run reported cached cells: %+v", firstDone.Progress)
	}
	hits0 := metricValue(t, ts, "zbpd_cache_hits_total")
	misses0 := metricValue(t, ts, "zbpd_cache_misses_total")
	if misses0 != 4 {
		t.Fatalf("cold run misses = %v, want 4", misses0)
	}
	instr0 := metricValue(t, ts, "zbpd_instructions_total")

	second := submitJob(t, ts, JobRequest{Sweep: &sweep})
	secondDone := waitJob(t, ts, second.ID, jobs.Done)

	// Every cell cached, no new compute, not one additional simulated
	// instruction.
	if secondDone.Progress.CellsCached != 4 || secondDone.Progress.CellsDone != 4 {
		t.Errorf("resubmission progress %+v, want 4/4 cached", secondDone.Progress)
	}
	if d := metricValue(t, ts, "zbpd_cache_hits_total") - hits0; d != 4 {
		t.Errorf("cache hits delta %v, want 4", d)
	}
	if d := metricValue(t, ts, "zbpd_cache_misses_total") - misses0; d != 0 {
		t.Errorf("cache misses delta %v, want 0", d)
	}
	if d := metricValue(t, ts, "zbpd_instructions_total") - instr0; d != 0 {
		t.Errorf("simulated instructions delta %v, want 0 (a cached sweep simulates nothing)", d)
	}
	// And the payload is byte-identical: same bytes, not merely equal
	// numbers.
	if !bytes.Equal(firstDone.Result, secondDone.Result) {
		t.Error("cached result bytes differ from the cold run")
	}
}

// TestJobConcurrentIdenticalSingleflight: N identical jobs submitted
// at once compute each cell exactly once — everyone else coalesces
// onto the in-flight compute or hits memory — and every observer gets
// byte-identical results.
func TestJobConcurrentIdenticalSingleflight(t *testing.T) {
	const N = 8
	s, ts := newTestServer(t, Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: N})
	sweep := SweepRequest{
		Workloads:    []string{"loops", "micro"},
		Seeds:        []uint64{5, 6},
		Instructions: 60_000,
	}

	ids := make([]string, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submitJob(t, ts, JobRequest{Sweep: &sweep}).ID
		}(i)
	}
	wg.Wait()

	results := make([][]byte, N)
	for i, id := range ids {
		results[i] = waitJob(t, ts, id, jobs.Done).Result
	}
	for i := 1; i < N; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("job %d result differs from job 0", i)
		}
	}
	const cells = 4
	if got := s.cache.Misses(); got != cells {
		t.Errorf("misses = %d, want %d (one compute per cell)", got, cells)
	}
	if got := s.cache.Puts(); got != cells {
		t.Errorf("puts = %d, want %d", got, cells)
	}
	if got := metricValue(t, ts, "zbpd_instructions_total"); got != cells*60_000 {
		t.Errorf("simulated instructions = %v, want %d (every cell simulated once)", got, cells*60_000)
	}
	if got := s.cache.Hits(); got != int64(N*cells-cells) {
		t.Errorf("hits = %d, want %d", got, N*cells-cells)
	}
}

// TestJobDiff: the diff kind runs the equivalence harness async, with
// per-cell events and the standard response shape as the result.
func TestJobDiff(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := submitJob(t, ts, JobRequest{Diff: &DiffRequest{
		Workloads:    []string{"loops"},
		Instructions: 20_000,
	}})
	done := waitJob(t, ts, st.ID, jobs.Done)
	var resp DiffResponse
	if err := json.Unmarshal(done.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 1 || !resp.Cells[0].OK || resp.Divergences != 0 {
		t.Errorf("diff result %+v", resp)
	}
	events := readEventLines(t, ts, st.ID)
	sawDiffCell := false
	for _, e := range events {
		if e["type"] == "diff_cell" {
			sawDiffCell = true
			if e["ok"] != true {
				t.Errorf("diff cell event %v", e)
			}
		}
	}
	if !sawDiffCell {
		t.Error("no diff_cell event published")
	}
}

// TestJobSubmitAfterDrain: once Drain begins, submissions are refused
// with 503 — jobs must not outlive the shutdown decision.
func TestJobSubmitAfterDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Drain()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Simulate: &SimulateRequest{Workload: "loops", Instructions: 10_000},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status %d (%s), want 503", resp.StatusCode, body)
	}
}

// TestJobGoroutineLeak: a full lifecycle — jobs, streams, a stalled
// reader, cancellation, shutdown — returns the process to its
// baseline goroutine count.
func TestJobGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		s, err := New(Config{Workers: 2, AuditEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		st := submitJob(t, ts, JobRequest{Sweep: &SweepRequest{
			Workloads:    []string{"loops"},
			Seeds:        []uint64{1, 2},
			Instructions: 20_000,
		}})
		stalled, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, ts, st.ID, jobs.Done)
		readEventLines(t, ts, st.ID)
		stalled.Body.Close()
		s.Drain()
	}()

	waitFor(t, 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	}, func() string {
		buf := make([]byte, 1<<20)
		return fmt.Sprintf("goroutines %d > baseline %d\n%s",
			runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
	})
}

// TestJobPoisonedCacheEntryCaughtByAuditor is the end-to-end
// poisoning test: a corrupted on-disk cache entry (valid header,
// tampered payload) is served to a client — the disk layer carries no
// checksum by design — and the sampled equiv audit catches it,
// bumping zbpd_cache_audit_failures_total.
func TestJobPoisonedCacheEntryCaughtByAuditor(t *testing.T) {
	dir := t.TempDir()
	spec := rcache.CellSpec{Config: "z15", Workload: "loops", Seed: 9, Instructions: 50_000}

	// Phase 1: an honest server computes and persists the cell.
	var honestCycles int64
	func() {
		s, err := New(Config{Workers: 1, CacheDir: dir, AuditEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		st := submitJob(t, ts, JobRequest{Simulate: &SimulateRequest{
			Workload: spec.Workload, Seed: &spec.Seed, Instructions: spec.Instructions,
		}})
		done := waitJob(t, ts, st.ID, jobs.Done)
		var resp SimulateResponse
		if err := json.Unmarshal(done.Result, &resp); err != nil {
			t.Fatal(err)
		}
		honestCycles = resp.Cycles
	}()

	// Poison the disk entry: keep the identity header, bump sim.cycles
	// in the payload, re-serialize canonically so nothing short of
	// recomputation can tell.
	path := filepath.Join(dir, rcache.NewKey(spec).Hash()+".zrc")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(raw, '\n')
	var snap metrics.Snapshot
	if err := json.Unmarshal(raw[nl+1:], &snap); err != nil {
		t.Fatal(err)
	}
	snap.Counters["sim.cycles"] += 1_000_000
	tampered, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw[:nl+1:nl+1], tampered...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh server (cold memory cache, audit every hit)
	// serves the poisoned entry... and the auditor calls it out.
	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir, AuditEvery: 1})
	st := submitJob(t, ts, JobRequest{Simulate: &SimulateRequest{
		Workload: spec.Workload, Seed: &spec.Seed, Instructions: spec.Instructions,
	}})
	done := waitJob(t, ts, st.ID, jobs.Done)
	var resp SimulateResponse
	if err := json.Unmarshal(done.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cycles != honestCycles+1_000_000 {
		t.Fatalf("poisoned entry not served from disk: cycles %d, honest %d (was the cell recomputed?)",
			resp.Cycles, honestCycles)
	}
	if s.cache.DiskHits() != 1 {
		t.Fatalf("diskHits = %d, want 1 — the poisoned read must come from disk", s.cache.DiskHits())
	}

	waitFor(t, 30*time.Second, func() bool {
		return s.cache.AuditFailures.Load() >= 1
	}, func() string {
		return fmt.Sprintf("audits=%d failures=%d errors=%d dropped=%d",
			s.cache.Audits.Load(), s.cache.AuditFailures.Load(), s.cache.AuditErrors.Load(), s.cache.AuditDropped.Load())
	})
	if metricValue(t, ts, "zbpd_cache_audit_failures_total") < 1 {
		t.Error("audit failure not exported on /metrics")
	}
}

// TestJobNoCacheBypass: no_cache forces a fresh compute and leaves no
// cache entry behind.
func TestJobNoCacheBypass(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := JobRequest{
		Simulate: &SimulateRequest{Workload: "loops", Instructions: 20_000},
		NoCache:  true,
	}
	st := submitJob(t, ts, req)
	done := waitJob(t, ts, st.ID, jobs.Done)
	if done.Progress.CellsCached != 0 {
		t.Errorf("no_cache job reported a cached cell: %+v", done.Progress)
	}
	if s.cache.Misses() != 0 || s.cache.Puts() != 0 || s.cache.Len() != 0 {
		t.Errorf("no_cache touched the cache: misses=%d puts=%d len=%d",
			s.cache.Misses(), s.cache.Puts(), s.cache.Len())
	}
}

// TestJobResultIsSyncReply: a job's result is the compact form of the
// sync reply to the same payload, for every job kind.
func TestJobResultIsSyncReply(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	sim := &SimulateRequest{Workload: "loops", Workload2: "micro", Instructions: 10_000, FullStats: true}
	sweep := &SweepRequest{
		Configs: []string{"z14", "z15"}, Workloads: []string{"loops", "micro"},
		Seeds: []uint64{1, 2}, Instructions: 5_000,
	}
	diff := &DiffRequest{Workloads: []string{"loops", "callret"}, Instructions: 3_000}
	for _, tc := range []struct {
		route   string
		payload any
		job     JobRequest
	}{
		{"/v1/simulate", sim, JobRequest{Simulate: sim}},
		{"/v1/sweep", sweep, JobRequest{Sweep: sweep}},
		{"/v1/diff", diff, JobRequest{Diff: diff}},
	} {
		done := waitJob(t, ts, submitJob(t, ts, tc.job).ID, jobs.Done)
		resp, body := postJSON(t, ts.URL+tc.route, tc.payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: sync status %d: %s", tc.route, resp.StatusCode, body)
		}
		if got, want := compact(t, done.Result), compact(t, body); got != want {
			t.Errorf("%s: job result\n%s\nis not the sync reply\n%s", tc.route, got, want)
		}
	}
}

// TestJobWaitsOutFullQueue: sweep and diff jobs submitted against a
// saturated local queue back off rather than fail, and finish every
// cell once the queue frees up.
func TestJobWaitsOutFullQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// One blocker occupies the worker, one fills the single queue slot.
	_, free := parkBlockers(t, s, 2)
	waitFor(t, 5*time.Second, func() bool {
		return loc(s).q.depth() == 1
	}, func() string { return fmt.Sprintf("queue depth %d", loc(s).q.depth()) })

	ids := []string{
		submitJob(t, ts, JobRequest{Sweep: &SweepRequest{
			Workloads: []string{"loops"}, Seeds: []uint64{1, 2}, Instructions: 5_000,
		}}).ID,
		submitJob(t, ts, JobRequest{Diff: &DiffRequest{
			Workloads: []string{"loops"}, Instructions: 3_000,
		}}).ID,
	}
	// A cache miss means the sweep's first cell reached the full queue.
	waitFor(t, 5*time.Second, func() bool { return s.Cache().Misses() >= 1 },
		func() string { return "the sweep never tried its first cell" })
	for _, id := range ids {
		if _, st := getJob(t, ts, id); st.Progress.CellsDone != 0 || st.State.Terminal() {
			t.Fatalf("job %s finished work against a full queue: %+v", id, st)
		}
	}

	free()
	for _, id := range ids {
		done := waitJob(t, ts, id, jobs.Done)
		if p := done.Progress; p.CellsDone != p.CellsTotal {
			t.Errorf("job %s finished %d of %d cells", id, p.CellsDone, p.CellsTotal)
		}
	}
}
