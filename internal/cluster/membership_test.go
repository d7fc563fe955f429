package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zbp/internal/jobs"
	"zbp/internal/rcache"
	"zbp/internal/server"
)

// newBackendServer boots one real single-box backend over httptest.
func newBackendServer(t *testing.T) *httptest.Server {
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
	return ts
}

func httpDelete(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// totalDispatched sums lifetime /v1/cell dispatches across the
// current membership.
func totalDispatched(c *Coordinator) int64 {
	var n int64
	for _, s := range c.Backends() {
		n += s.Dispatched
	}
	return n
}

// TestBackendsAdminSurface walks the /v1/backends CRUD: list,
// register (including duplicate and garbage URLs), deregister
// (including an unknown member), with the membership version moving.
func TestBackendsAdminSurface(t *testing.T) {
	f := newFleet(t, 2, nil)

	resp, err := http.Get(f.url + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var list BackendsResponse
	if derr := json.NewDecoder(resp.Body).Decode(&list); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if len(list.Backends) != 2 {
		t.Fatalf("GET /v1/backends: %d members, want 2", len(list.Backends))
	}
	v0 := list.Version

	// Duplicate registration conflicts rather than aliasing the member.
	dresp, body := postJSON(t, f.url+"/v1/backends", backendChangeRequest{URL: f.backends[0].URL})
	if dresp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate register: status %d (%s), want 409", dresp.StatusCode, body)
	}
	// Garbage URLs are rejected up front.
	gresp, _ := postJSON(t, f.url+"/v1/backends", backendChangeRequest{URL: "ftp://nope"})
	if gresp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage url: status %d, want 400", gresp.StatusCode)
	}

	third := newBackendServer(t)
	aresp, body := postJSON(t, f.url+"/v1/backends", backendChangeRequest{URL: third.URL})
	if aresp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", aresp.StatusCode, body)
	}
	var ch BackendChangeResponse
	if err := json.Unmarshal(body, &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Version <= v0 || !ch.Backend.Healthy {
		t.Errorf("register response %+v: version should bump and the newcomer starts healthy", ch)
	}
	if got := f.coord.fleet.size(); got != 3 {
		t.Fatalf("fleet size %d after register, want 3", got)
	}
	if f.coord.backendAdded.Load() != 1 {
		t.Errorf("backendAdded counter %d, want 1", f.coord.backendAdded.Load())
	}

	rresp, body := httpDelete(t, f.url+"/v1/backends?url="+third.URL)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d: %s", rresp.StatusCode, body)
	}
	var rm BackendChangeResponse
	if err := json.Unmarshal(body, &rm); err != nil {
		t.Fatal(err)
	}
	if !rm.Drained || !rm.Backend.Departed {
		t.Errorf("deregister response %+v: idle member should drain instantly and be marked departed", rm)
	}
	if got := f.coord.fleet.size(); got != 2 {
		t.Fatalf("fleet size %d after deregister, want 2", got)
	}
	if f.coord.backendRemoved.Load() != 1 {
		t.Errorf("backendRemoved counter %d, want 1", f.coord.backendRemoved.Load())
	}

	nresp, _ := httpDelete(t, f.url+"/v1/backends?url="+third.URL)
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("deregister unknown: status %d, want 404", nresp.StatusCode)
	}
}

// TestDeregisterMidSweep deregisters a backend through /v1/backends
// while its cells are in flight: the removal drains gracefully, the
// remaining members absorb the departed member's cells, no row fails,
// and the sweep result stays byte-identical to a single box.
func TestDeregisterMidSweep(t *testing.T) {
	grid := server.SweepRequest{
		Configs:      []string{"z15"},
		Workloads:    []string{"loops", "micro", "lspr"},
		Seeds:        []uint64{1, 2, 3, 4},
		Instructions: 300_000,
	}
	want := singleBoxSweep(t, grid)

	f := newFleet(t, 3, func(c *Config) { c.MaxAttempts = 6 })
	id := submitJob(t, f.url, server.JobRequest{Sweep: &grid})

	// Follow the event stream; deregister after the second cell
	// completes, while the rest of the grid is still dispatched.
	resp, err := http.Get(f.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	cells, removed := 0, false
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Type == "cell" {
			cells++
			if cells == 2 && !removed {
				removed = true
				rresp, body := httpDelete(t, f.url+"/v1/backends?url="+f.backends[0].URL)
				if rresp.StatusCode != http.StatusOK {
					t.Errorf("mid-sweep deregister: status %d: %s", rresp.StatusCode, body)
				}
			}
		}
	}
	if !removed {
		t.Fatal("sweep finished before the deregister fired; grid too small to exercise churn")
	}

	st := waitJob(t, f.url, id)
	if st.State != jobs.Done {
		t.Fatalf("job after deregister: state %s, error %q", st.State, st.Error)
	}
	if !bytes.Equal(st.Result, want.Result) {
		t.Errorf("post-churn sweep differs from single box:\nfleet:  %s\nsingle: %s", st.Result, want.Result)
	}
	var sw server.SweepResponse
	if err := json.Unmarshal(st.Result, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Errors != 0 {
		t.Errorf("%d failed rows after a graceful deregister, want 0", sw.Errors)
	}
	if f.coord.backendRemoved.Load() != 1 {
		t.Errorf("backendRemoved counter %d, want 1", f.coord.backendRemoved.Load())
	}
	hresp, err := http.Get(f.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if derr := json.NewDecoder(hresp.Body).Decode(&h); derr != nil {
		t.Fatal(derr)
	}
	hresp.Body.Close()
	if len(h.Backends) != 2 || h.Version < 1 {
		t.Errorf("healthz after deregister: %d members (want 2), version %d (want >=1)", len(h.Backends), h.Version)
	}
}

// TestRegisterColdBackendMidCampaign grows the fleet between sweeps:
// a freshly registered (cold) backend starts receiving its rendezvous
// share of new cells, while repeats of the earlier grid are still
// answered entirely from the coordinator cache — zero backend
// dispatches, even though placement arithmetic changed underneath.
func TestRegisterColdBackendMidCampaign(t *testing.T) {
	f := newFleet(t, 2, func(c *Config) {
		c.HedgeDelay = -1
		c.AuditEvery = -1 // audits dispatch for real; keep the zero-dispatch ledger exact
	})
	gridA := testGrid()
	cold := sweepJobDone(t, f.url, gridA)

	third := newBackendServer(t)
	aresp, body := postJSON(t, f.url+"/v1/backends", backendChangeRequest{URL: third.URL})
	if aresp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", aresp.StatusCode, body)
	}

	// A fresh grid (two dozen never-seen cells): the newcomer must win
	// its rendezvous share of the primaries.
	gridB := server.SweepRequest{
		Configs:      []string{"z14", "z15"},
		Workloads:    []string{"loops", "micro"},
		Seeds:        []uint64{11, 12, 13, 14, 15, 16},
		Instructions: 20_000,
	}
	sweepJobDone(t, f.url, gridB)
	var newcomer int64 = -1
	for _, s := range f.coord.Backends() {
		if s.URL == third.URL {
			newcomer = s.Dispatched
		}
	}
	if newcomer <= 0 {
		t.Errorf("cold backend dispatched %d cells of a 24-cell fresh grid; it is not receiving its rendezvous share", newcomer)
	}

	// Warm repeat of the first grid: every cell cache-served, zero
	// backend dispatches, bytes unchanged by the membership change.
	dispatchedBefore := totalDispatched(f.coord)
	hitsBefore := f.coord.Cache().Hits()
	warm := sweepJobDone(t, f.url, gridA)
	if !bytes.Equal(warm.Result, cold.Result) {
		t.Error("warm repeat diverged after membership change")
	}
	if warm.Progress.CellsCached != warm.Progress.CellsTotal {
		t.Errorf("warm repeat served %d/%d cells from cache, want all",
			warm.Progress.CellsCached, warm.Progress.CellsTotal)
	}
	if d := totalDispatched(f.coord) - dispatchedBefore; d != 0 {
		t.Errorf("warm repeat performed %d backend dispatches, want 0", d)
	}
	if h := f.coord.Cache().Hits() - hitsBefore; h != int64(warm.Progress.CellsTotal) {
		t.Errorf("coordinator cache hits moved by %d, want %d", h, warm.Progress.CellsTotal)
	}
}

// TestBackendsFileReload drives membership from a -backends-file: the
// initial load is synchronous, and edits (removals and additions) are
// picked up by the probe loop within an interval.
func TestBackendsFileReload(t *testing.T) {
	b1, b2 := newBackendServer(t), newBackendServer(t)
	path := filepath.Join(t.TempDir(), "backends.txt")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("# fleet roster\n" + b1.URL + "\n" + b2.URL + "\n")

	coord, err := New(Config{
		BackendsFile:   path,
		healthInterval: 20 * time.Millisecond,
		CellTimeout:    10 * time.Second,
		HedgeDelay:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if got := coord.fleet.size(); got != 2 {
		t.Fatalf("initial file load: %d members, want 2", got)
	}

	// A file-built fleet must actually route.
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	sweepJobDone(t, ts.URL, server.SweepRequest{
		Workloads: []string{"loops"}, Seeds: []uint64{1, 2}, Instructions: 20_000,
	})

	waitSize := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for coord.fleet.size() != want {
			if time.Now().After(deadline) {
				t.Fatalf("fleet size %d, want %d after file edit", coord.fleet.size(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Drop b2: the file is declarative, so it drains out.
	write(b1.URL + "\n")
	waitSize(1)
	if _, ok := coord.fleet.get(mustClean(t, b2.URL)); ok {
		t.Error("removed backend still in the fleet")
	}
	if coord.backendRemoved.Load() != 1 {
		t.Errorf("backendRemoved %d, want 1", coord.backendRemoved.Load())
	}

	// Add a third member alongside b1.
	b3 := newBackendServer(t)
	write(b1.URL + "\n" + b3.URL + "  # fresh capacity\n")
	waitSize(2)
	if _, ok := coord.fleet.get(mustClean(t, b3.URL)); !ok {
		t.Error("added backend missing from the fleet")
	}
}

func mustClean(t *testing.T, raw string) string {
	t.Helper()
	_, clean, err := backendName(raw)
	if err != nil {
		t.Fatal(err)
	}
	return clean
}

// TestCoordCacheAuditCatchesPoison plants a wrong-but-parseable entry
// under one cell's content address and proves the sampled audit lane
// catches it: the hit is recomputed through a real no-cache dispatch
// and the byte comparison fails loudly.
func TestCoordCacheAuditCatchesPoison(t *testing.T) {
	f := newFleet(t, 1, func(c *Config) {
		c.AuditEvery = 1 // audit every hit: this test is about the auditor
		c.HedgeDelay = -1
	})

	// Compute seed 42 honestly so we have plausible stats bytes...
	resp, body := postJSON(t, f.url+"/v1/simulate", server.SimulateRequest{
		Workload: "loops", Instructions: 20_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", resp.StatusCode, body)
	}
	honest, ok := f.coord.Cache().Get(rcache.NewKey(rcache.CellSpec{
		Config: "z15", Workload: "loops", Seed: 42, Instructions: 20_000,
	}))
	if !ok {
		t.Fatal("computed cell not in the coordinator cache")
	}
	// ...and plant them under seed 7's address: a parseable lie.
	seed := uint64(7)
	f.coord.Cache().Put(rcache.NewKey(rcache.CellSpec{
		Config: "z15", Workload: "loops", Seed: seed, Instructions: 20_000,
	}), honest)

	// Serving seed 7 now hits the poisoned entry; AuditEvery=1 samples
	// it, the recompute dispatches for real, and the bytes diverge.
	resp, body = postJSON(t, f.url+"/v1/simulate", server.SimulateRequest{
		Workload: "loops", Seed: &seed, Instructions: 20_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poisoned simulate: status %d: %s", resp.StatusCode, body)
	}

	deadline := time.Now().Add(10 * time.Second)
	for f.coord.Cache().AuditFailures.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if f.coord.Cache().AuditFailures.Load() == 0 {
		t.Fatal("audit never flagged the poisoned entry")
	}
	if f.coord.Cache().Audits.Load() == 0 {
		t.Error("audit counter did not move")
	}
}
