package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zbp/internal/jobs"
	"zbp/internal/server"
)

// fakeClock is a lock-guarded clock injected through Config.now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestJobTableFullRefundsAdmission pins the admission-token leak fix: a
// submission refused for a full job table must not keep the tokens it
// was charged. With a bucket that practically never refills, leaked
// tokens would turn the first submission after the table frees up into
// a false admission-limit 429.
func TestJobTableFullRefundsAdmission(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	f := newFleet(t, 1, func(c *Config) {
		c.MaxJobs = 1
		c.JobTTL = time.Minute
		c.AdmitCellsPerSec = 1e-6
		c.AdmitBurst = 2
		c.now = clk.now
	})
	job := server.JobRequest{Simulate: &server.SimulateRequest{Workload: "loops", Instructions: 20_000}}
	waitJob(t, f.url, submitJob(t, f.url, job)) // one token left

	for i := range 3 {
		resp, body := postJSON(t, f.url+"/v1/jobs", job)
		if resp.StatusCode != http.StatusTooManyRequests || !bytes.Contains(body, []byte("job table full")) {
			t.Fatalf("submission %d against a full table: status %d: %s", i, resp.StatusCode, body)
		}
	}

	clk.advance(2 * time.Minute) // the finished job's TTL lapses; refill stays ~0
	resp, body := postJSON(t, f.url+"/v1/jobs", job)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submission after eviction: status %d: %s", resp.StatusCode, body)
	}
}

// TestOversizeGridAdmitted pins the fix for grids larger than the
// admission bucket: such a grid is charged the whole bucket and
// admitted once it is full, instead of being refused forever with a
// Retry-After that can never come true.
func TestOversizeGridAdmitted(t *testing.T) {
	f := newFleet(t, 1, func(c *Config) {
		c.AdmitCellsPerSec = 1
		c.AdmitBurst = 2
	})
	resp, body := postJSON(t, f.url+"/v1/sweep", server.SweepRequest{
		Workloads: []string{"loops", "micro"}, Seeds: []uint64{1, 2}, Instructions: 20_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("4-cell sweep over a 2-token bucket: status %d: %s", resp.StatusCode, body)
	}
}

// TestCrossRoleByteIdentity runs the four request shapes — sync
// simulate, sync sweep, simulate job, sweep job — on a single box, on a
// coordinator over two backends, and on a coordinator whose only
// backend is that coordinator. One front end serves all three, so the
// compacted result bytes must be identical.
func TestCrossRoleByteIdentity(t *testing.T) {
	single := newBackendServer(t)
	fleet := newFleet(t, 2, nil)
	outer, err := New(Config{Backends: []string{fleet.url}, healthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	outerTS := httptest.NewServer(outer.Handler())
	t.Cleanup(func() {
		outerTS.Close()
		outer.Close()
	})

	seed := uint64(5)
	simulate := server.SimulateRequest{Workload: "micro", Workload2: "loops", Seed: &seed, Instructions: 20_000, FullStats: true}
	sweep := testGrid()
	results := func(base string) [][]byte {
		out := make([][]byte, 0, 4)
		for _, path := range []string{"/v1/simulate", "/v1/sweep"} {
			var req any = simulate
			if path == "/v1/sweep" {
				req = sweep
			}
			resp, body := postJSON(t, base+path, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s%s: status %d: %s", base, path, resp.StatusCode, body)
			}
			out = append(out, body)
		}
		for _, req := range []server.JobRequest{{Simulate: &simulate}, {Sweep: &sweep}} {
			st := waitJob(t, base, submitJob(t, base, req))
			if st.State != jobs.Done {
				t.Fatalf("%s job: state %s, error %q", base, st.State, st.Error)
			}
			out = append(out, st.Result)
		}
		for i, b := range out {
			var c bytes.Buffer
			if err := json.Compact(&c, b); err != nil {
				t.Fatal(err)
			}
			out[i] = c.Bytes()
		}
		return out
	}
	want := results(single.URL)
	names := []string{"sync simulate", "sync sweep", "simulate job", "sweep job"}
	for role, base := range map[string]string{"coordinator": fleet.url, "coordinator of a coordinator": outerTS.URL} {
		for i, got := range results(base) {
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s on a %s differs from the single box:\n got:  %s\n want: %s", names[i], role, got, want[i])
			}
		}
	}
}
