package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zbp/internal/jobs"
	"zbp/internal/server"
)

// fleet is a coordinator fronting n real single-box backends, all
// in-process over httptest.
type fleet struct {
	coord    *Coordinator
	url      string
	backends []*httptest.Server
	kills    []*sync.Once
}

func newFleet(t *testing.T, n int, mut func(*Config)) *fleet {
	t.Helper()
	f := &fleet{}
	urls := make([]string, n)
	for i := range n {
		s, err := server.New(server.Config{Workers: 2, QueueDepth: 64, AuditEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		f.backends = append(f.backends, ts)
		urls[i] = ts.URL
		once := &sync.Once{}
		f.kills = append(f.kills, once)
		t.Cleanup(func() {
			once.Do(func() { ts.Close() })
			s.Close()
		})
	}
	cfg := Config{
		Backends:       urls,
		healthInterval: 20 * time.Millisecond,
		CellTimeout:    10 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	ts := httptest.NewServer(coord.Handler())
	f.url = ts.URL
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return f
}

// kill abruptly terminates backend i: in-flight requests get reset
// and future dials are refused.
func (f *fleet) kill(i int) {
	f.kills[i].Do(func() {
		f.backends[i].CloseClientConnections()
		f.backends[i].Close()
	})
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

func submitJob(t *testing.T, base string, req server.JobRequest) string {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/jobs", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

func waitJob(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sweepJobDone submits a sweep job to base and waits for it to end done.
func sweepJobDone(t *testing.T, base string, req server.SweepRequest) jobs.Status {
	t.Helper()
	id := submitJob(t, base, server.JobRequest{Sweep: &req})
	st := waitJob(t, base, id)
	if st.State != jobs.Done {
		t.Fatalf("job %s: state %s, error %q", id, st.State, st.Error)
	}
	return st
}

// singleBoxSweep computes the reference result on one standalone box.
func singleBoxSweep(t *testing.T, req server.SweepRequest) jobs.Status {
	t.Helper()
	s, err := server.New(server.Config{Workers: 2, QueueDepth: 64, AuditEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return sweepJobDone(t, ts.URL, req)
}

func testGrid() server.SweepRequest {
	return server.SweepRequest{
		Configs:      []string{"z14", "z15"},
		Workloads:    []string{"loops", "micro"},
		Seeds:        []uint64{1, 2},
		Instructions: 20_000,
	}
}

// TestFleetSweepByteIdentical is the core determinism acceptance: a
// sweep sharded across 4 backends must produce result JSON
// byte-identical to the same sweep on one standalone box, and a warm
// repeat must be served almost entirely from backend caches because
// rendezvous routing sends each cell back to the backend that
// computed it.
func TestFleetSweepByteIdentical(t *testing.T) {
	grid := testGrid()
	want := singleBoxSweep(t, grid)

	// Hedging off so backend attribution stays deterministic; audits
	// off because they dispatch for real and this test counts
	// dispatches to zero. Both get their own tests.
	f := newFleet(t, 4, func(c *Config) {
		c.HedgeDelay = -1
		c.AuditEvery = -1
	})
	cold := sweepJobDone(t, f.url, grid)
	if !bytes.Equal(cold.Result, want.Result) {
		t.Errorf("fleet sweep differs from single box:\nfleet:  %s\nsingle: %s", cold.Result, want.Result)
	}
	total := cold.Progress.CellsTotal
	if cold.Progress.CellsDone != total {
		t.Errorf("cold run finished %d/%d cells", cold.Progress.CellsDone, total)
	}
	if got := f.coord.Cache().Misses(); got != int64(total) {
		t.Errorf("cold run recorded %d coordinator cache misses, want %d", got, total)
	}

	// Warm repeat: every cell is answered from the coordinator's own
	// result cache — zero backend dispatches, byte-identical marshal.
	dispatchedBefore := totalDispatched(f.coord)
	warm := sweepJobDone(t, f.url, grid)
	if !bytes.Equal(warm.Result, want.Result) {
		t.Error("warm fleet sweep diverged from the reference result")
	}
	if warm.Progress.CellsCached != total {
		t.Errorf("warm run served %d/%d cells from cache, want all",
			warm.Progress.CellsCached, total)
	}
	if d := totalDispatched(f.coord) - dispatchedBefore; d != 0 {
		t.Errorf("warm run performed %d backend dispatches, want 0", d)
	}
	if got := f.coord.Cache().Hits(); got != int64(total) {
		t.Errorf("coordinator cache hits %d after warm run, want %d", got, total)
	}
	if got := f.coord.CellsCached.Load(); got < int64(warm.Progress.CellsCached) {
		t.Errorf("coordinator cached-cell counter %d below job's %d", got, warm.Progress.CellsCached)
	}
}

// TestBackendDeathMidSweep kills one backend while its cells are in
// flight: the sweep must complete anyway, with rerouted recomputation
// producing the exact reference bytes.
func TestBackendDeathMidSweep(t *testing.T) {
	grid := server.SweepRequest{
		Configs:      []string{"z15"},
		Workloads:    []string{"loops", "micro", "lspr"},
		Seeds:        []uint64{1, 2, 3, 4},
		Instructions: 300_000,
	}
	want := singleBoxSweep(t, grid)

	f := newFleet(t, 3, func(c *Config) {
		c.healthFailures = 1
		c.MaxAttempts = 6
	})
	id := submitJob(t, f.url, server.JobRequest{Sweep: &grid})

	// Follow the event stream; pull the trigger after the second cell
	// completes, while the rest of the grid is still dispatched.
	resp, err := http.Get(f.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	cells, killed := 0, false
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Type == "cell" {
			cells++
			if cells == 2 && !killed {
				killed = true
				f.kill(0)
			}
		}
	}
	if !killed {
		t.Fatal("sweep finished before the kill fired; grid too small to exercise failover")
	}

	st := waitJob(t, f.url, id)
	if st.State != jobs.Done {
		t.Fatalf("job after backend death: state %s, error %q", st.State, st.Error)
	}
	if !bytes.Equal(st.Result, want.Result) {
		t.Errorf("post-failover sweep differs from single box:\nfleet:  %s\nsingle: %s", st.Result, want.Result)
	}
	if st.Progress.CellsDone != st.Progress.CellsTotal {
		t.Errorf("finished %d/%d cells", st.Progress.CellsDone, st.Progress.CellsTotal)
	}
}

// TestSyncSurface exercises the pass-through sync endpoints and the
// coordinator's own healthz shape.
func TestSyncSurface(t *testing.T) {
	f := newFleet(t, 2, nil)

	resp, body := postJSON(t, f.url+"/v1/simulate", server.SimulateRequest{
		Workload: "loops", Instructions: 20_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", resp.StatusCode, body)
	}
	var sim server.SimulateResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Instructions != 20_000 || sim.Accuracy <= 0 {
		t.Errorf("simulate response %+v", sim)
	}

	resp, body = postJSON(t, f.url+"/v1/sweep", server.SweepRequest{
		Workloads: []string{"loops"}, Seeds: []uint64{1, 2}, Instructions: 20_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var sw server.SweepResponse
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) != 2 || sw.Errors != 0 {
		t.Errorf("sweep response: %d cells, %d errors", len(sw.Cells), sw.Errors)
	}

	hresp, err := http.Get(f.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "coordinator" || h.Router != "rendezvous" || len(h.Backends) != 2 {
		t.Errorf("healthz %+v", h)
	}

	resp, _ = postJSON(t, f.url+"/v1/simulate", server.SimulateRequest{Workload: "no-such"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: status %d, want 400", resp.StatusCode)
	}

	// A coordinator built with no limits takes the single box's
	// 20M-instruction ceiling.
	resp, _ = postJSON(t, f.url+"/v1/simulate", server.SimulateRequest{Workload: "loops", Instructions: 20_000_001})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-budget simulate: status %d, want 400", resp.StatusCode)
	}

	// Oversize bodies must map to 413, not 400, matching the single box.
	big := fmt.Sprintf(`{"workloads":["loops"],"seeds":[1],"instructions":20000,"tag":%q}`,
		strings.Repeat("x", 2<<20))
	oresp, err := http.Post(f.url+"/v1/sweep", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413", oresp.StatusCode)
	}
}

// TestAdmissionControl drains the token bucket and checks the 429
// carries a sane Retry-After.
func TestAdmissionControl(t *testing.T) {
	f := newFleet(t, 1, func(c *Config) {
		c.AdmitCellsPerSec = 1
		c.AdmitBurst = 2
	})
	grid := server.SweepRequest{Workloads: []string{"loops"}, Seeds: []uint64{1, 2}, Instructions: 20_000}
	sweepJobDone(t, f.url, grid) // spends the burst

	resp, body := postJSON(t, f.url+"/v1/jobs", server.JobRequest{Sweep: &grid})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission status %d: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 || secs > 60 {
		t.Errorf("Retry-After %q outside [1,60]", ra)
	}
	if f.coord.Rejected.Load() == 0 {
		t.Error("rejected counter did not move")
	}
}

// TestDiffJobForwarded proves the coordinator serves the full job
// surface, not just sweeps: a diff job forwards to a backend and
// completes with per-cell events.
func TestDiffJobForwarded(t *testing.T) {
	f := newFleet(t, 2, nil)
	id := submitJob(t, f.url, server.JobRequest{Diff: &server.DiffRequest{
		Workloads: []string{"loops"}, Instructions: 20_000,
	}})
	st := waitJob(t, f.url, id)
	if st.State != jobs.Done {
		t.Fatalf("diff job: state %s, error %q", st.State, st.Error)
	}
	var dr server.DiffResponse
	if err := json.Unmarshal(st.Result, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Cells) != 1 || dr.Divergences != 0 {
		t.Errorf("diff result %+v", dr)
	}
}
