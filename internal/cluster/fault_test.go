package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zbp/internal/jobs"
	"zbp/internal/rcache"
	"zbp/internal/server"
)

// fakeBackend serves /healthz like a healthy box and delegates
// everything else to misbehave.
func fakeBackend(t *testing.T, misbehave http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(server.Health{Status: "ok", Workers: 2, QueueCapacity: 16})
	})
	mux.HandleFunc("/", misbehave)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ts.Close()
	})
	return ts
}

// mixedFleet builds a coordinator over one real backend plus the
// given fakes; f.backends lists the real one first.
func mixedFleet(t *testing.T, mut func(*Config), fakes ...*httptest.Server) *fleet {
	t.Helper()
	f := &fleet{}
	s, err := server.New(server.Config{Workers: 2, QueueDepth: 64, AuditEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	good := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		good.Close()
		s.Close()
	})
	f.backends = append([]*httptest.Server{good}, fakes...)
	urls := make([]string, len(f.backends))
	for i, ts := range f.backends {
		urls[i] = ts.URL
	}
	cfg := Config{
		Backends:       urls,
		healthInterval: 20 * time.Millisecond,
		CellTimeout:    5 * time.Second,
		HedgeDelay:     25 * time.Millisecond,
		MaxAttempts:    6,
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

// seedsRoutedTo returns n seeds whose 20k-instruction loops cell has
// the backend at url as its rendezvous primary, so the ports httptest
// draws cannot starve a fake of primaries.
func seedsRoutedTo(t *testing.T, f *fleet, url string, n int) []uint64 {
	t.Helper()
	members := f.coord.fleet.snapshot()
	var seeds []uint64
	for seed := uint64(1); len(seeds) < n; seed++ {
		if seed > 10_000 {
			t.Fatalf("no %d seeds route to %s", n, url)
		}
		spec := rcache.CellSpec{Config: "z15", Workload: "loops", Seed: seed, Instructions: 20_000}
		if f.coord.order(members, spec)[0].url == url {
			seeds = append(seeds, seed)
		}
	}
	return seeds
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHedgeBeatsStraggler fronts a backend that accepts cells and
// never answers. Cells whose primary lands there must be rescued by
// the hedged duplicate on the healthy backend, the job must complete,
// and the hedge counters must move.
func TestHedgeBeatsStraggler(t *testing.T) {
	staller := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the HTTP/1.x server only watches for
		// client aborts (and cancels r.Context()) once the request body
		// has been consumed. A real backend decodes the body up front.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hold the cell until the coordinator gives up
	})
	f := mixedFleet(t, nil, staller)
	seeds := append(seedsRoutedTo(t, f, staller.URL, 3), seedsRoutedTo(t, f, f.backends[0].URL, 3)...)

	st := sweepJobDone(t, f.url, server.SweepRequest{
		Workloads: []string{"loops"}, Seeds: seeds, Instructions: 20_000,
	})
	if st.Progress.CellsDone != 6 {
		t.Errorf("finished %d/6 cells", st.Progress.CellsDone)
	}
	if got := f.coord.hedgeLaunched.Load(); got == 0 {
		t.Error("no hedges launched against a stalling primary")
	}
	if got := f.coord.hedgeWins.Load(); got == 0 {
		t.Error("no hedge wins recorded; stalled cells should be won by duplicates")
	}
	m := metricsText(t, f.url)
	const wins = `zbpd_hedge_wins_total{service="zbpd-coordinator"} `
	if !strings.Contains(m, wins) || strings.Contains(m, wins+"0\n") {
		t.Error("zbpd_hedge_wins_total absent or zero in /metrics")
	}
}

// TestSaturatedBackendRerouted fronts a backend that 429s every cell:
// saturation must reroute (retries move) without the backend being
// branded unhealthy — a full queue is load, not sickness.
func TestSaturatedBackendRerouted(t *testing.T) {
	sat := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"job queue full, retry later"}`))
	})
	f := mixedFleet(t, nil, sat)
	seeds := append(seedsRoutedTo(t, f, sat.URL, 2), seedsRoutedTo(t, f, f.backends[0].URL, 2)...)

	st := sweepJobDone(t, f.url, server.SweepRequest{
		Workloads: []string{"loops"}, Seeds: seeds, Instructions: 20_000,
	})
	if st.Progress.CellsDone != 4 {
		t.Errorf("finished %d/4 cells", st.Progress.CellsDone)
	}
	if f.coord.retries.Load() == 0 {
		t.Error("no retries recorded; 429ed cells should reroute")
	}
	if f.coord.backendUnhealthy.Load() != 0 {
		t.Error("saturated backend was marked unhealthy")
	}
	for _, b := range f.coord.fleet.snapshot() {
		if !b.healthy.Load() {
			t.Errorf("backend %s unhealthy after mere saturation", b.name)
		}
	}
}

// TestCallerDeadlineDoesNotDentHealth pins the health-attribution
// fix: when the *caller's* request deadline expires mid-dispatch, the
// aborted attempt is the client's impatience, not backend sickness.
// Pre-fix, only context.Canceled was exempt from noteBackendFailure,
// so a short client timeout dented — and with a low threshold flipped
// — perfectly healthy backends.
func TestCallerDeadlineDoesNotDentHealth(t *testing.T) {
	slow := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // slower than the client's patience
	})
	cfg := Config{
		Backends:       []string{slow.URL},
		healthInterval: 20 * time.Millisecond,
		healthFailures: 1,                // one unfair dent is enough to flip
		CellTimeout:    10 * time.Second, // the attempt's own budget is generous
		HedgeDelay:     -1,
		MaxAttempts:    1,
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", server.SimulateRequest{
		Workload: "loops", Instructions: 20_000, TimeoutMs: 150,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("impatient simulate: status %d (%s), want 504", resp.StatusCode, body)
	}
	// The aborted attempt classifies asynchronously; give it room to
	// (wrongly) dent before asserting it did not.
	time.Sleep(500 * time.Millisecond)
	if got := coord.backendUnhealthy.Load(); got != 0 {
		t.Errorf("caller-deadline expiry flipped %d backends unhealthy, want 0", got)
	}
}

// TestNoSelfHedgeOnSingleBackend pins the self-hedge fix: with one
// backend there is no "next choice", and duplicating the cell onto
// the box already running it burns a queue slot and an admission
// token for zero diversity. The hedge must simply not launch.
func TestNoSelfHedgeOnSingleBackend(t *testing.T) {
	f := newFleet(t, 1, func(c *Config) {
		c.HedgeDelay = time.Millisecond // fires long before a 300k-instruction cell finishes
		c.MaxAttempts = 4
	})
	st := sweepJobDone(t, f.url, server.SweepRequest{
		Workloads: []string{"loops"}, Seeds: []uint64{1, 2}, Instructions: 300_000,
	})
	if st.Progress.CellsDone != 2 {
		t.Errorf("finished %d/2 cells", st.Progress.CellsDone)
	}
	if got := f.coord.hedgeLaunched.Load(); got != 0 {
		t.Errorf("hedged %d times on a one-backend fleet; the duplicate lands on the primary's own box", got)
	}
}

// TestDeadBackendMarkedUnhealthy fronts a backend that drops dead
// before the sweep: dispatch failures plus probe failures must flip
// it unhealthy (counter + /metrics), and the sweep completes on the
// survivor.
func TestDeadBackendMarkedUnhealthy(t *testing.T) {
	dead := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {})
	dead.CloseClientConnections()
	dead.Close() // refuses all future dials

	f := mixedFleet(t, func(c *Config) { c.healthFailures = 2 }, dead)

	st := sweepJobDone(t, f.url, server.SweepRequest{
		Workloads: []string{"loops"}, Seeds: []uint64{1, 2, 3, 4}, Instructions: 20_000,
	})
	if st.State != jobs.Done || st.Progress.CellsDone != 4 {
		t.Errorf("job %s, %d/4 cells", st.State, st.Progress.CellsDone)
	}

	// The probe loop needs a couple of intervals to cross the failure
	// threshold even if dispatch already did.
	deadline := time.Now().Add(2 * time.Second)
	for f.coord.backendUnhealthy.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if f.coord.backendUnhealthy.Load() == 0 {
		t.Fatal("dead backend never marked unhealthy")
	}
	m := metricsText(t, f.url)
	if !strings.Contains(m, `zbpd_backend_unhealthy_total{service="zbpd-coordinator"} 1`+"\n") {
		t.Error("zbpd_backend_unhealthy_total not reporting 1 in /metrics")
	}
	if !strings.Contains(m, `zbpd_coord_backends_healthy{service="zbpd-coordinator"} 1`+"\n") {
		t.Error("zbpd_coord_backends_healthy not reporting the survivor count")
	}
}
