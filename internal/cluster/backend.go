package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"zbp/internal/hashx"
	"zbp/internal/server"
)

// backend is one fleet member: its identity, its in-flight cap, its
// health, and the last load snapshot scraped from its /healthz.
type backend struct {
	name   string // host:port, the short form in events and logs
	url    string // base URL, no trailing slash
	idHash uint64 // rendezvous identity, hashed once at construction

	// slots caps concurrent dispatches; acquiring is a channel send so
	// waiters are cancelable by context.
	slots chan struct{}

	healthy     atomic.Bool
	consecFails atomic.Int32
	load        atomic.Pointer[server.Health]

	// departed marks a member being deregistered: it takes no new
	// dispatches (routing and every retry path skip it) while its
	// in-flight attempts drain, then it is forgotten.
	departed atomic.Bool

	// Lifetime tallies for the coordinator's /healthz report.
	inflight   atomic.Int64
	dispatched atomic.Int64
	failures   atomic.Int64
}

func newBackend(raw string, inflightCap int) (*backend, error) {
	name, clean, err := backendName(raw)
	if err != nil {
		return nil, err
	}
	b := &backend{
		name:   name,
		url:    clean,
		idHash: hashx.Mix(hashx.String(clean)),
		slots:  make(chan struct{}, inflightCap),
	}
	b.healthy.Store(true) // innocent until probed otherwise
	return b, nil
}

// acquire takes one dispatch slot, waiting until one frees or ctx
// dies. release must be called exactly once per successful acquire.
func (b *backend) acquire(ctx context.Context) error {
	select {
	case b.slots <- struct{}{}:
		b.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *backend) release() {
	b.inflight.Add(-1)
	<-b.slots
}

// fetchHealth scrapes the backend's /healthz JSON.
func (b *backend) fetchHealth(ctx context.Context, client *http.Client) (*server.Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// BackendStatus is one backend's row in the coordinator's /healthz.
type BackendStatus struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	Departed   bool   `json:"departed,omitempty"`
	Inflight   int64  `json:"inflight"`
	Dispatched int64  `json:"dispatched"`
	Failures   int64  `json:"failures"`
	// Load mirrors the backend's own /healthz JSON from the last
	// successful probe; absent until one lands.
	Load *server.Health `json:"load,omitempty"`
}

func (b *backend) status() BackendStatus {
	return BackendStatus{
		Name:       b.name,
		URL:        b.url,
		Healthy:    b.healthy.Load(),
		Departed:   b.departed.Load(),
		Inflight:   b.inflight.Load(),
		Dispatched: b.dispatched.Load(),
		Failures:   b.failures.Load(),
		Load:       b.load.Load(),
	}
}
