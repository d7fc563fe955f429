package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zbp/internal/metrics"
	"zbp/internal/rcache"
)

// stubExec answers every cell instantly with an empty stats snapshot,
// so a fuzzed front end exercises decoding, validation, admission and
// grid assembly without simulating anything.
type stubExec struct{}

func (stubExec) Exec(context.Context, rcache.CellSpec, bool) (Outcome, error) {
	return Outcome{Stats: []byte(`{"schema_version":1,"counters":{}}`)}, nil
}
func (stubExec) Recompute(context.Context, rcache.CellSpec) ([]byte, error) { return nil, nil }
func (stubExec) Diff(context.Context, DiffRequest, uint64, func(DiffCell)) ([]DiffCell, error) {
	return nil, nil
}
func (stubExec) TraceName(name string) (string, error) { return name, nil }
func (stubExec) RetryAfter() time.Duration             { return time.Second }
func (stubExec) RunSecondsEWMA() float64               { return 0 }
func (stubExec) Health() any                           { return Health{Status: "ok"} }
func (stubExec) Register(*metrics.Registry)            {}
func (stubExec) Shutdown()                             {}

// FuzzFrontendDecode posts arbitrary bodies to every POST route of the
// one front end. Whatever the body, it must not panic and must answer
// with a success or a client-side refusal: 200/201 for an accepted
// request, 400/413 for a bad or oversized body, 429 for a full job
// table or admission bucket.
func FuzzFrontendDecode(f *testing.F) {
	s, err := NewFrontend(Config{MaxBodyBytes: 4 << 10, AuditEvery: -1}, stubExec{}, Role{
		Service: "zbpd", Prefix: "zbpd.", FailStatus: http.StatusInternalServerError,
		AdmitRate: 1000, AdmitBurst: 64, Now: time.Now,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	routes := []string{"/v1/simulate", "/v1/sweep", "/v1/cell", "/v1/diff", "/v1/jobs"}
	seeds := []string{
		`{"workload":"loops","instructions":1000,"full_stats":true}`,
		`{"configs":["z14","z15"],"workloads":["loops","micro"],"seeds":[1,2]}`,
		`{"workload":"loops","workload2":"micro","seed":7,"no_cache":true}`,
		`{"workloads":["loops"],"checks":["packed-vs-streaming"],"perturb":true}`,
		`{"sweep":{"workloads":["loops"]},"timeout_ms":1}`,
		`{"kind":"diff","simulate":{"workload":"loops"}}`,
		`{"workload":"file:../../etc/passwd"}`,
		`{"workloads":["loops"],"instructions":-1}`,
		`{"workload":`,
		`[]`,
	}
	for i, body := range seeds {
		for r := range routes {
			f.Add(uint8(r+i), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusCreated, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST %s %q: status %d: %s", path, body, w.Code, w.Body)
		}
	})
}
