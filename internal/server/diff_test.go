package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"

	"zbp/internal/equiv"
)

func TestDiffEndpointClean(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/diff", DiffRequest{
		Workloads:    []string{"loops", "callret"},
		Instructions: 3_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out DiffResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(out.Cells))
	}
	if out.Divergences != 0 {
		t.Errorf("clean grid reported %d divergences: %s", out.Divergences, body)
	}
	for _, c := range out.Cells {
		if !c.OK || c.Error != "" || len(c.Findings) != 0 {
			t.Errorf("cell %s/%s not clean: %+v", c.Config, c.Workload, c)
		}
		if c.Checks != len(equiv.Checks()) {
			t.Errorf("cell %s/%s ran %d checks, want %d", c.Config, c.Workload, c.Checks, len(equiv.Checks()))
		}
	}
}

func TestDiffEndpointPerturbDetected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/diff", DiffRequest{
		Workloads:    []string{"patterned"},
		Instructions: 4_000,
		Checks:       []string{"packed-vs-streaming", "event-replay"},
		Perturb:      true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out DiffResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Divergences == 0 {
		t.Fatalf("perturbed diff reported no divergence: %s", body)
	}
	cell := out.Cells[0]
	if cell.OK || len(cell.Findings) == 0 {
		t.Fatalf("perturbed cell has no findings: %+v", cell)
	}
	named := false
	for _, f := range cell.Findings {
		if f.Check == "" || f.Detail == "" {
			t.Errorf("finding missing attribution: %+v", f)
		}
		if f.Metric != "" {
			named = true
		}
	}
	if !named {
		t.Errorf("no finding names the diverging metric: %+v", cell.Findings)
	}
}

func TestDiffValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxSweepCells: 4, MaxInstructions: 100_000})
	cases := []struct {
		name string
		req  DiffRequest
	}{
		{"no workloads", DiffRequest{}},
		{"unknown workload", DiffRequest{Workloads: []string{"nope"}}},
		{"unknown config", DiffRequest{Workloads: []string{"loops"}, Configs: []string{"z99"}}},
		{"unknown check", DiffRequest{Workloads: []string{"loops"}, Checks: []string{"bogus"}}},
		{"too many cells", DiffRequest{
			Workloads: []string{"loops", "callret", "indirect"},
			Configs:   []string{"z14", "z15"},
		}},
		{"instructions over cap", DiffRequest{Workloads: []string{"loops"}, Instructions: 200_000}},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/diff", c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, resp.StatusCode, body)
		}
	}
}

func TestSweepErrorsFieldCleanGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads:    []string{"loops", "micro"},
		Instructions: 5_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SweepResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 0 {
		t.Errorf("clean sweep reported %d cell errors", out.Errors)
	}
}

// TestRetryAfterDerivation pins the queued-work estimate behind the
// Retry-After header: no samples means the 1s floor, the estimate
// scales with the smoothed task duration and queue depth, and the
// clamp keeps pathological estimates in [1, 60].
func TestRetryAfterDerivation(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("no samples: Retry-After %d, want 1", got)
	}
	loc(s).observeRun(3 * time.Second)
	if got := s.retryAfterSeconds(); got != 3 {
		t.Errorf("after one 3s task (empty queue): Retry-After %d, want 3", got)
	}
	// EWMA smooths rather than tracks the last sample: 3s + (11s-3s)/8.
	loc(s).observeRun(11 * time.Second)
	if got := s.retryAfterSeconds(); got != 4 {
		t.Errorf("after smoothing an 11s task: Retry-After %d, want 4", got)
	}
	loc(s).observeRun(10 * time.Hour)
	if got := s.retryAfterSeconds(); got != 60 {
		t.Errorf("pathological estimate: Retry-After %d, want the 60s clamp", got)
	}
}

// TestQueueFullRetryAfterScales saturates the queue after seeding the
// duration estimate and checks the 429's Retry-After reflects the
// queued work instead of the old hardcoded "1".
func TestQueueFullRetryAfterScales(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	loc(s).observeRun(5 * time.Second)

	parkBlockers(t, s, 2)
	waitFor(t, 5*time.Second, func() bool {
		return loc(s).q.depth() == 1
	}, func() string { return fmt.Sprintf("queue depth %d", loc(s).q.depth()) })

	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "loops", Instructions: 10_000})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("unparseable Retry-After %q", resp.Header.Get("Retry-After"))
	}
	// One queued 5s task plus the incoming one over one worker: ~10s.
	if secs < 5 || secs > 60 {
		t.Errorf("Retry-After = %ds, want a queued-work-scaled value in [5, 60]", secs)
	}
}
