// Package cluster shards sweeps across a fleet of zbpd backends. A
// single zbpd process is fast and never recomputes repeats, but it runs
// a sweep one cell at a time on one box — wall-clock for a large grid
// is bounded by one machine. The coordinator in this package is the
// same /v1 front end a single box serves (internal/server), over an
// executor that dispatches each cell to a backend over the /v1/cell
// protocol with:
//
//   - Rendezvous routing on the result cache's canonical spec key:
//     identical cells always land on the backend that already holds
//     the cached bytes.
//   - Per-backend in-flight caps behind the front end's token-bucket
//     admission control: fleet saturation becomes a 429 with a
//     fleet-derived Retry-After instead of an unbounded pile-up.
//   - Timeout/retry with hedged duplicates for straggler cells. The
//     simulator is deterministic down to byte-identical stats JSON, so
//     the first response simply wins — duplicate dispatch needs no
//     reconciliation logic, which is what makes hedging free.
//   - Automatic rerouting away from backends that fail health probes
//     or drop connections mid-cell.
//
// The front end runs a fleet grid's cells all at once and derives its
// rows from backend-returned canonical stats through the same
// server.Summarize a single box uses, so a fleet sweep's result JSON is
// byte-identical to a single-box run — even when a backend dies
// mid-sweep and its cells are replayed elsewhere. Since the coordinator
// serves /v1/cell itself, another coordinator can list it as a backend.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zbp/internal/metrics"
	"zbp/internal/rcache"
	"zbp/internal/server"
)

// Config sizes a Coordinator. Backends is required; every other field
// has a production-lean default applied by New.
type Config struct {
	// Backends seeds the fleet: base URLs of zbpd processes
	// ("http://host:8347"). Membership is mutable at runtime through
	// /v1/backends and BackendsFile; this list is only the starting
	// point. Required unless BackendsFile is set.
	Backends []string
	// BackendsFile, when set, names a file with one backend URL per
	// line (blank lines and #-comments ignored). The probe loop
	// re-reads it when it changes and reconciles membership to it —
	// the file is declarative and wins over earlier admin edits.
	BackendsFile string
	// Router names the routing policy. Only "rendezvous" exists; empty
	// means the same.
	Router string

	// CellTimeout bounds one dispatch attempt of one cell. Default: 60s.
	CellTimeout time.Duration
	// HedgeDelay is how long the primary attempt may run before a
	// duplicate is launched on the next-choice backend. 0 means the
	// default of 400ms; negative disables hedging.
	HedgeDelay time.Duration
	// MaxAttempts bounds total launches per cell (primary + retries +
	// the hedge). Default: max(3, len(Backends)).
	MaxAttempts int
	// InflightPerBackend caps concurrent cells dispatched to one
	// backend. Default: 4.
	InflightPerBackend int

	// AdmitCellsPerSec refills the admission token bucket (one token
	// per grid cell). 0 means the default of 256; negative disables
	// admission control.
	AdmitCellsPerSec float64
	// AdmitBurst is the bucket capacity. Default: 1024.
	AdmitBurst int

	// Coordinator-side result cache: winning canonical stats bytes are
	// stored under the same rcache content address the routing key
	// uses, so a repeat sweep is answered with zero backend
	// dispatches. CacheMemBytes bounds the in-memory LRU (default
	// 256 MiB); CacheDir enables the optional disk layer bounded by
	// CacheDiskBytes (default 1 GiB).
	CacheMemBytes  int64
	CacheDir       string
	CacheDiskBytes int64
	// AuditEvery recomputes every Nth coordinator cache hit through a
	// real no-cache dispatch and byte-compares the result. 0 means the
	// default of 16; negative disables auditing.
	AuditEvery int

	// Request surface limits, mirroring the single-box service: zero
	// takes server.Config's default, except MaxSweepCells.
	MaxSweepCells       int // default 16384: fleets exist for big grids
	MaxInstructions     int
	DefaultInstructions int
	DefaultTimeout      time.Duration
	MaxTimeout          time.Duration
	MaxJobs             int
	JobTTL              time.Duration

	// healthInterval is the /healthz polling period (250ms by
	// default), and healthFailures how many consecutive probe or
	// transport failures mark a backend unhealthy (3 by default);
	// tests shorten both.
	healthInterval time.Duration
	healthFailures int
	// now supplies the clock for the job table and admission bucket;
	// tests inject a fake.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.CellTimeout <= 0 {
		c.CellTimeout = 60 * time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 400 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
		if len(c.Backends) > c.MaxAttempts {
			c.MaxAttempts = len(c.Backends)
		}
	}
	if c.InflightPerBackend <= 0 {
		c.InflightPerBackend = 4
	}
	if c.AdmitCellsPerSec == 0 {
		c.AdmitCellsPerSec = 256
	}
	if c.AdmitBurst <= 0 {
		c.AdmitBurst = 1024
	}
	if c.healthInterval <= 0 {
		c.healthInterval = 250 * time.Millisecond
	}
	if c.healthFailures <= 0 {
		c.healthFailures = 3
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 16384
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Coordinator is the /v1 front end over a fleet: it is the executor the
// embedded server runs cells on, plus membership, the probe loop and
// /v1/backends. Build with New, serve Handler, and Close when done
// (Drain first on graceful shutdown).
type Coordinator struct {
	*server.Server

	cfg    Config
	fleet  memberSet     // mutable, versioned membership registry
	rr     atomic.Uint64 // diff forwarding's rotation cursor
	client *http.Client

	// baseCtx bounds the probe loop and membership drains; Shutdown
	// cancels it.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// -backends-file change detection (probe-loop goroutine only).
	bfMod    time.Time
	bfSize   int64
	bfWarned bool

	// Fleet counters, exported via /metrics.
	attempts         atomic.Int64
	retries          atomic.Int64
	hedgeLaunched    atomic.Int64
	hedgeWins        atomic.Int64
	backendUnhealthy atomic.Int64
	backendAdded     atomic.Int64
	backendRemoved   atomic.Int64
}

// New builds a coordinator over the configured fleet and starts its
// health-probe loop. Callers must Close it.
func New(cfg Config) (*Coordinator, error) {
	c := &Coordinator{cfg: cfg.withDefaults()}
	if len(c.cfg.Backends) == 0 && c.cfg.BackendsFile == "" {
		return nil, errors.New("cluster: no backends configured")
	}
	for _, raw := range c.cfg.Backends {
		b, err := newBackend(raw, c.cfg.InflightPerBackend)
		if err != nil {
			return nil, err
		}
		if err := c.fleet.add(b); err != nil {
			return nil, fmt.Errorf("cluster: duplicate backend %s", b.url)
		}
	}
	if r := c.cfg.Router; r != "" && r != "rendezvous" {
		return nil, fmt.Errorf("cluster: unknown router %q (have rendezvous)", r)
	}
	c.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: c.cfg.InflightPerBackend + 2,
		IdleConnTimeout:     90 * time.Second,
	}}
	c.baseCtx, c.baseCancel = context.WithCancel(context.Background())
	var err error
	c.Server, err = server.NewFrontend(server.Config{
		MaxInstructions:     c.cfg.MaxInstructions,
		DefaultInstructions: c.cfg.DefaultInstructions,
		MaxSweepCells:       c.cfg.MaxSweepCells,
		DefaultTimeout:      c.cfg.DefaultTimeout,
		MaxTimeout:          c.cfg.MaxTimeout,
		MaxJobs:             c.cfg.MaxJobs,
		JobTTL:              c.cfg.JobTTL,
		CacheMemBytes:       c.cfg.CacheMemBytes,
		CacheDir:            c.cfg.CacheDir,
		CacheDiskBytes:      c.cfg.CacheDiskBytes,
		AuditEvery:          c.cfg.AuditEvery,
	}, c, server.Role{
		Service: "zbpd-coordinator", Prefix: "zbpd.coord_",
		FailStatus: http.StatusBadGateway,
		AdmitRate:  c.cfg.AdmitCellsPerSec, AdmitBurst: c.cfg.AdmitBurst,
		Now: c.cfg.now,
	})
	if err != nil {
		c.baseCancel()
		return nil, err
	}
	c.HandleFunc("GET /v1/backends", c.handleBackendsList)
	c.HandleFunc("POST /v1/backends", c.handleBackendAdd)
	c.HandleFunc("DELETE /v1/backends", c.handleBackendRemove)
	// Load the membership file once, synchronously, so a file-only
	// fleet is routable before the first probe tick.
	c.maybeReloadBackendsFile()
	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// Exec dispatches one cell to the fleet (see dispatchCell).
func (c *Coordinator) Exec(ctx context.Context, cell rcache.CellSpec, noCache bool) (server.Outcome, error) {
	return c.dispatchCell(ctx, c.fleet.snapshot(), cell, noCache)
}

// Recompute re-resolves a sampled coordinator cache hit through a real
// no-cache dispatch — no_cache all the way down, so a backend simulates
// rather than answering from its own cache.
func (c *Coordinator) Recompute(ctx context.Context, cell rcache.CellSpec) ([]byte, error) {
	out, err := c.Exec(ctx, cell, true)
	return out.Stats, err
}

// Diff forwards the grid to one backend as a sync request — the
// harness recomputes on purpose, so there is nothing to shard or cache
// — retrying on the next backend if the chosen one fails.
func (c *Coordinator) Diff(ctx context.Context, req server.DiffRequest, seed uint64, onCell func(server.DiffCell)) ([]server.DiffCell, error) {
	// The caller's ctx is the real deadline; give the backend's own
	// sync clamp as much room as it allows.
	req.Seed, req.TimeoutMs = &seed, int(c.cfg.MaxTimeout/time.Millisecond)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cands := c.candidates(c.fleet.snapshot())
	if len(cands) == 0 {
		return nil, errors.New("no backends available")
	}
	start := int(c.rr.Add(1) - 1)
	var lastErr error
	for k := range cands {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var resp server.DiffResponse
		permanent, ferr := c.post(ctx, ctx, cands[(start+k)%len(cands)], "/v1/diff", body, &resp)
		if ferr != nil {
			lastErr = ferr
			if permanent {
				return nil, ferr
			}
			continue
		}
		for _, dc := range resp.Cells {
			if onCell != nil {
				onCell(dc)
			}
		}
		return resp.Cells, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return nil, fmt.Errorf("diff failed on every backend: %w", lastErr)
}

// TraceName passes path-backed workloads (file:/spec:) through: each
// backend enforces its own -trace-dir allowlist, and routing keys by
// content digest when the coordinator can read the file, by name
// otherwise (stable either way).
func (c *Coordinator) TraceName(name string) (string, error) { return name, nil }

// RetryAfter estimates when fleet capacity frees up: the least busy
// healthy backend's queued work spread over its workers.
func (c *Coordinator) RetryAfter() time.Duration {
	best := 0.0
	have := false
	for _, b := range c.candidates(c.fleet.snapshot()) {
		h := b.load.Load()
		if h == nil {
			continue
		}
		workers := max(h.Workers, 1)
		ewma := h.RunSecondsEWMA
		if ewma <= 0 {
			ewma = 1
		}
		est := float64(h.QueueDepth+int(h.Inflight)+1) * ewma / float64(workers)
		if !have || est < best {
			best, have = est, true
		}
	}
	return time.Duration(best * float64(time.Second))
}

// RunSecondsEWMA is the mean smoothed per-task duration across backends
// with a load snapshot — the fleet analogue of a single box's
// run_seconds_ewma, reported in progress events.
func (c *Coordinator) RunSecondsEWMA() float64 {
	var sum float64
	n := 0
	for _, b := range c.fleet.snapshot() {
		if h := b.load.Load(); h != nil {
			sum += h.RunSecondsEWMA
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// HealthResponse is the coordinator's GET /healthz body: its own role
// plus one row per backend with the last scraped load snapshot.
// Version is the membership generation (bumps on every join/leave).
type HealthResponse struct {
	Status   string          `json:"status"`
	Role     string          `json:"role"`
	Router   string          `json:"router"`
	Version  int64           `json:"version"`
	Backends []BackendStatus `json:"backends"`
}

func (c *Coordinator) Health() any {
	return HealthResponse{
		Status: "ok", Role: "coordinator", Router: "rendezvous",
		Version: c.fleet.generation(), Backends: c.Backends(),
	}
}

// Register adds the fleet gauges; everything is a snapshot-time read of
// an atomic, so scrapes race nothing.
func (c *Coordinator) Register(reg *metrics.Registry) {
	gauge := func(name string, f func() float64) { reg.Gauge(name, f) }
	count := func(name string, v *atomic.Int64) {
		gauge(name, func() float64 { return float64(v.Load()) })
	}
	count("zbpd.coord_attempts_total", &c.attempts)
	count("zbpd.coord_retries_total", &c.retries)
	count("zbpd.hedge_launched_total", &c.hedgeLaunched)
	count("zbpd.hedge_wins_total", &c.hedgeWins)
	count("zbpd.backend_unhealthy_total", &c.backendUnhealthy)
	count("zbpd.backend_added_total", &c.backendAdded)
	count("zbpd.backend_removed_total", &c.backendRemoved)
	gauge("zbpd.coord_cache_mem_bytes", func() float64 { return float64(c.Cache().MemBytes()) })
	gauge("zbpd.coord_backends", func() float64 { return float64(c.fleet.size()) })
	gauge("zbpd.coord_backends_version", func() float64 { return float64(c.fleet.generation()) })
	gauge("zbpd.coord_backends_healthy", func() float64 {
		n := 0
		for _, b := range c.fleet.snapshot() {
			if b.healthy.Load() {
				n++
			}
		}
		return float64(n)
	})
	gauge("zbpd.coord_inflight", func() float64 {
		var n int64
		for _, b := range c.fleet.snapshot() {
			n += b.inflight.Load()
		}
		return float64(n)
	})
}

// Shutdown stops the probe loop and membership drains once the front
// end is idle; Close calls it.
func (c *Coordinator) Shutdown() {
	c.baseCancel()
	c.wg.Wait()
	c.client.CloseIdleConnections()
}

// candidates filters a membership snapshot down to routable backends.
// Departed members are dropped first — a deregistration applies
// instantly, even to sweeps pinned to an older snapshot. If that
// leaves nothing (every snapshot member left mid-sweep), the current
// fleet steps in so the remaining cells can still land somewhere.
// Among the survivors, those passing probes win; when the whole set
// looks down it returns everything, because dispatch attempts are
// themselves the fastest way to discover recovery.
func (c *Coordinator) candidates(members []*backend) []*backend {
	alive := make([]*backend, 0, len(members))
	for _, b := range members {
		if !b.departed.Load() {
			alive = append(alive, b)
		}
	}
	if len(alive) == 0 {
		for _, b := range c.fleet.snapshot() {
			if !b.departed.Load() {
				alive = append(alive, b)
			}
		}
	}
	healthy := make([]*backend, 0, len(alive))
	for _, b := range alive {
		if b.healthy.Load() {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) == 0 {
		return alive
	}
	return healthy
}

// order returns the preference-ordered backends for one cell, routing
// within the sweep's membership snapshot. The routing key is the result
// cache's content address itself, so routing and every backend's cache
// agree on what "the same cell" means.
func (c *Coordinator) order(members []*backend, spec rcache.CellSpec) []*backend {
	cands := c.candidates(members)
	if len(cands) == 0 {
		return nil
	}
	return rendezvousOrder(rcache.NewKey(spec).Hash64(), cands)
}

// probeLoop polls every member's /healthz on the configured interval
// until the coordinator closes, re-reading the membership file (if
// any) first so joins and leaves land within one probe interval.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.healthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
		}
		c.maybeReloadBackendsFile()
		var pw sync.WaitGroup
		for _, b := range c.fleet.snapshot() {
			pw.Add(1)
			go func(b *backend) {
				defer pw.Done()
				c.probe(b)
			}(b)
		}
		pw.Wait()
	}
}

func (c *Coordinator) probe(b *backend) {
	// The timeout is floored well above the probe interval: a sluggish
	// scrape is load, not death — dead backends fail fast on dial.
	timeout := 4 * c.cfg.healthInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(c.baseCtx, timeout)
	defer cancel()
	h, err := b.fetchHealth(ctx, c.client)
	if err != nil {
		c.noteBackendFailure(b)
		return
	}
	b.load.Store(h)
	c.noteBackendSuccess(b)
}

// noteBackendFailure records one failed probe or transport-level
// dispatch error; enough in a row flips the backend unhealthy and
// routes new cells away from it.
func (c *Coordinator) noteBackendFailure(b *backend) {
	if int(b.consecFails.Add(1)) >= c.cfg.healthFailures {
		if b.healthy.CompareAndSwap(true, false) {
			c.backendUnhealthy.Add(1)
			log.Printf("cluster: backend %s marked unhealthy", b.name)
		}
	}
}

func (c *Coordinator) noteBackendSuccess(b *backend) {
	b.consecFails.Store(0)
	if b.healthy.CompareAndSwap(false, true) {
		log.Printf("cluster: backend %s healthy again", b.name)
	}
}

// backendName renders a URL as the short name used in events and logs.
func backendName(raw string) (name, clean string, err error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", "", fmt.Errorf("cluster: bad backend URL %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", "", fmt.Errorf("cluster: backend URL %q must be http(s)", raw)
	}
	if u.Host == "" {
		return "", "", fmt.Errorf("cluster: backend URL %q has no host", raw)
	}
	return u.Host, strings.TrimRight(u.String(), "/"), nil
}
