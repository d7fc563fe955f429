// Package server implements the HTTP/JSON front end over the
// repository's trace-driven predictor model, and zbpd, the single-box
// service built on it. The front end is one route table, one set of
// request decoders and validators, admission control, the async job
// table and its event streams, and grid assembly through Summarize. It
// runs every cell through an Executor: zbpd's local executor is a
// bounded queue in front of the simulator (local.go); the cluster
// package's coordinator is a fleet of zbpd backends. A content-addressed
// result cache with a sampled audit lane wraps either executor
// (cache.go), so a repeated (config, workload, seed, budget) cell is
// served in microseconds with zero simulated cycles on both roles.
//
// Endpoints:
//
//	POST   /v1/simulate          one run: config preset + workload + seed + budget
//	POST   /v1/sweep             a small parameter grid, one result row per cell
//	POST   /v1/cell              one cell's canonical stats (the coordinator's backend protocol)
//	POST   /v1/diff              the equivalence harness over a configs x workloads grid
//	POST   /v1/jobs              submit an async simulate/sweep/diff job
//	GET    /v1/jobs/{id}         job status, per-cell progress, result when done
//	GET    /v1/jobs/{id}/events  JSONL progress stream (live + replayed history)
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /healthz              liveness + load (the executor's own shape)
//	GET    /metrics              live registry in Prometheus text format
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zbp/internal/core"
	"zbp/internal/jobs"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
	"zbp/internal/workload"
)

var (
	errQueueFull    = errors.New("server: job queue full")
	errShuttingDown = errors.New("server: shutting down")
)

// Config sizes the service. The zero value is usable: every field has
// a production-lean default applied by New.
type Config struct {
	// Workers is the number of simulations executing concurrently
	// (queue consumers). Default: GOMAXPROCS.
	Workers int
	// QueueDepth is how many accepted requests may wait beyond the
	// ones running before submissions are answered 429. Default: 16.
	QueueDepth int
	// MaxBodyBytes bounds request bodies. Default: 1 MiB.
	MaxBodyBytes int64
	// MaxInstructions bounds the per-thread instruction budget of one
	// request; it is also the materialized-trace size cap. Default:
	// 20M.
	MaxInstructions int
	// DefaultInstructions is used when a request omits the budget.
	// Default: 1M.
	DefaultInstructions int
	// MaxSweepCells bounds config x workload x seed grid sizes.
	// Default: 64.
	MaxSweepCells int
	// DefaultTimeout bounds a request's simulation time when the
	// request does not set timeout_ms. Default: 60s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts. It is also the
	// default (and the clamp) for async job deadlines: jobs exist to
	// outlive the HTTP timeout, so they get the ceiling, not the
	// per-request default. Default: 5m.
	MaxTimeout time.Duration

	// MaxJobs bounds the async job table (queued + running + finished
	// awaiting TTL eviction); a full table answers submissions 429.
	// Default: 64.
	MaxJobs int
	// JobTTL is how long a finished job stays pollable before the
	// table evicts it (GET then answers 404). Default: 15m.
	JobTTL time.Duration

	// CacheMemBytes bounds the in-memory layer of the result cache.
	// Default: 256 MiB.
	CacheMemBytes int64
	// CacheDir, when set, persists cache entries on disk (atomic
	// write-then-rename; entries survive restarts).
	CacheDir string
	// CacheDiskBytes bounds the on-disk layer. Default: 1 GiB.
	CacheDiskBytes int64
	// AuditEvery samples every Nth cache hit for background
	// recomputation through internal/equiv (the cache-poisoning
	// detector). 0 means the default of 16; negative disables
	// auditing. Default: 16.
	AuditEvery int

	// TraceDir, when set, allows file-backed workload names (file:<path>
	// and spec:<path>) in requests: paths resolve relative to this
	// directory and every referenced file — including files a spec
	// document points at — must stay inside it. Empty (the default)
	// rejects path-backed names entirely: a network request must never
	// make the server read arbitrary local files.
	TraceDir string

	// now supplies the clock for the job table; tests swap in a fake
	// to drive TTL eviction deterministically.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInstructions <= 0 {
		c.MaxInstructions = 20_000_000
	}
	if c.DefaultInstructions <= 0 {
		c.DefaultInstructions = 1_000_000
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.CacheMemBytes <= 0 {
		c.CacheMemBytes = 256 << 20
	}
	if c.CacheDiskBytes <= 0 {
		c.CacheDiskBytes = 1 << 30
	}
	if c.AuditEvery == 0 {
		c.AuditEvery = 16
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Outcome is one resolved cell: its canonical stats JSON plus where it
// came from.
type Outcome struct {
	Stats []byte
	// Cached reports that no simulation ran for this request.
	Cached bool
	// Backend names the fleet member that won the cell ("" on a single
	// box or a cache hit); Hedged marks a winning hedge duplicate.
	Backend string
	Hedged  bool
}

// Executor runs cells for the front end. Exec is the hot path; every
// other method is one of the few places a single box and a fleet
// differ.
type Executor interface {
	// Exec resolves one validated cell. noCache asks every cache below
	// the front end's own to recompute too.
	Exec(ctx context.Context, cell rcache.CellSpec, noCache bool) (Outcome, error)
	// Recompute derives a sampled cache hit's stats again without
	// reading any cache, for the audit lane to compare.
	Recompute(ctx context.Context, cell rcache.CellSpec) ([]byte, error)
	// Diff runs the equivalence harness over a validated grid, handing
	// each finished cell to onCell (if set) as it lands.
	Diff(ctx context.Context, req DiffRequest, seed uint64, onCell func(DiffCell)) ([]DiffCell, error)
	// TraceName admits one path-backed workload name (file:/spec:),
	// returning the canonical form every cache and backend keys by.
	TraceName(name string) (string, error)
	// RetryAfter estimates when capacity frees up, for 429 answers.
	RetryAfter() time.Duration
	// RunSecondsEWMA is the smoothed per-cell duration reported in
	// progress events.
	RunSecondsEWMA() float64
	// Health is the GET /healthz body.
	Health() any
	// Register adds the executor's own gauges to the registry.
	Register(reg *metrics.Registry)
	// Shutdown releases the executor once the front end is idle.
	Shutdown()
}

// Role is what the front end needs to know about its executor's
// deployment, fixed at construction.
type Role struct {
	// Service labels every metric; Prefix starts the cell, diff, cache
	// and admission metric names ("zbpd." on a single box, "zbpd.coord_"
	// on a coordinator).
	Service, Prefix string
	// GridWidth bounds the cells of one grid in flight at once; 0 runs
	// the whole grid together.
	GridWidth int
	// FailStatus answers a failed cell that was not the caller's doing.
	FailStatus int
	// AdmitRate refills the admission bucket in cells per second, up to
	// AdmitBurst; 0 admits everything.
	AdmitRate  float64
	AdmitBurst int
	// Now is the clock of the job table and the admission bucket.
	Now func() time.Time
}

// Counters are the front end's live tallies, exported on /metrics.
type Counters struct {
	Requests, Completed, Rejected, Canceled, Failed, JobsSubmitted atomic.Int64
	// Cells counts resolved cells, CellsCached the ones served without
	// a simulation, CellErrors the grid rows that carry an error.
	Cells, CellsCached, CellErrors, DiffDivergences atomic.Int64
}

// Server is the /v1 front end over one executor: the route table, the
// result cache, admission, and the async job table.
type Server struct {
	Counters

	cfg    Config
	exec   Executor
	role   Role
	cache  *ResultCache
	bucket *bucket // nil when admission control is off
	jobs   *jobs.Store
	mux    *http.ServeMux
	reg    *metrics.Registry

	// baseCtx parents every async job context; Drain/Close cancel it,
	// which cooperatively stops running jobs and the audit loop.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// asyncWG tracks job-runner goroutines and the audit loop so
	// Close can wait for them before shutting the executor down.
	asyncWG sync.WaitGroup
}

// NewFrontend builds the front end over exec and starts its cache-audit
// loop. Callers must Close it. The only construction failure is an
// unusable cache directory.
func NewFrontend(cfg Config, exec Executor, role Role) (*Server, error) {
	s := &Server{cfg: cfg.withDefaults(), exec: exec, role: role}
	cache, err := rcache.New(rcache.Config{
		MaxMemBytes:  s.cfg.CacheMemBytes,
		Dir:          s.cfg.CacheDir,
		MaxDiskBytes: s.cfg.CacheDiskBytes,
	})
	if err != nil {
		return nil, err
	}
	s.cache = &ResultCache{Cache: cache, next: exec, every: int64(s.cfg.AuditEvery)}
	if role.AdmitRate > 0 {
		s.bucket = newBucket(role.AdmitRate, float64(role.AdmitBurst), role.Now)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.jobs = jobs.NewStore(jobs.Options{MaxJobs: s.cfg.MaxJobs, TTL: s.cfg.JobTTL, Now: role.Now})
	s.reg = s.buildRegistry()
	if s.cfg.AuditEvery > 0 {
		s.cache.lane = make(chan auditTask, 8)
		s.asyncWG.Add(1)
		go func() {
			defer s.asyncWG.Done()
			s.cache.auditLoop(s.baseCtx)
		}()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/cell", s.handleCell)
	s.mux.HandleFunc("POST /v1/diff", s.handleDiff)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.exec.Health())
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// On a write error the headers are gone; nothing more to do.
		_ = s.reg.Snapshot().WritePrometheus(w)
	})
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// HandleFunc adds a role-specific route to the shared table.
func (s *Server) HandleFunc(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// Cache returns the result cache and its audit tallies.
func (s *Server) Cache() *ResultCache { return s.cache }

// Drain begins shutdown of the async layer: new job submissions are
// refused (503) and running jobs cancel cooperatively, which also
// ends their event streams. Call it before http.Server.Shutdown so
// long-lived streams do not hold the listener open for the whole
// grace budget.
func (s *Server) Drain() { s.baseCancel() }

// Close waits for job runners and the audit loop, then shuts the
// executor down, which finishes every accepted simulation. Call it
// after http.Server.Shutdown has drained the handlers.
func (s *Server) Close() {
	s.baseCancel()
	s.asyncWG.Wait()
	s.exec.Shutdown()
}

// buildRegistry wires the service gauges. Everything is a snapshot-time
// gauge over an atomic, so scrapes are race-free against live traffic.
func (s *Server) buildRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Label("service", s.role.Service)
	count := func(name string, v *atomic.Int64) {
		reg.Gauge(name, func() float64 { return float64(v.Load()) })
	}
	fn := func(name string, f func() int64) {
		reg.Gauge(name, func() float64 { return float64(f()) })
	}
	count("zbpd.requests_total", &s.Requests)
	count("zbpd.completed_total", &s.Completed)
	count("zbpd.rejected_total", &s.Rejected)
	count("zbpd.canceled_total", &s.Canceled)
	count("zbpd.failed_total", &s.Failed)
	count("zbpd.jobs_submitted_total", &s.JobsSubmitted)
	fn("zbpd.jobs_active", func() int64 { return int64(s.jobs.Active()) })
	fn("zbpd.jobs_table", func() int64 { return int64(s.jobs.Len()) })
	fn("zbpd.jobs_done_total", s.jobs.DoneCount)
	fn("zbpd.jobs_failed_total", s.jobs.FailedCount)
	fn("zbpd.jobs_canceled_total", s.jobs.CanceledCount)
	fn("zbpd.jobs_evicted_total", s.jobs.Evicted)

	p, c := s.role.Prefix, s.cache
	count(p+"cells_total", &s.Cells)
	count(p+"cells_cached_total", &s.CellsCached)
	count(p+"cell_errors_total", &s.CellErrors)
	count(p+"diff_divergences_total", &s.DiffDivergences)
	fn(p+"cache_hits_total", c.Hits)
	fn(p+"cache_misses_total", c.Misses)
	fn(p+"cache_puts_total", c.Puts)
	fn(p+"cache_evictions_total", c.Evictions)
	fn(p+"cache_coalesced_total", c.Coalesced)
	fn(p+"cache_disk_hits_total", c.DiskHits)
	fn(p+"cache_disk_errors_total", c.DiskErrors)
	fn(p+"cache_entries", func() int64 { return int64(c.Len()) })
	fn(p+"cache_bytes", c.MemBytes)
	count(p+"cache_audits_total", &c.Audits)
	count(p+"cache_audit_failures_total", &c.AuditFailures)
	count(p+"cache_audit_errors_total", &c.AuditErrors)
	count(p+"cache_audit_dropped_total", &c.AuditDropped)
	if s.bucket != nil {
		reg.Gauge(p+"admit_tokens", s.bucket.available)
	}
	s.exec.Register(reg)
	return reg
}

// --- request/response schemas -----------------------------------------

// SimulateRequest is the POST /v1/simulate body.
type SimulateRequest struct {
	// Config names a machine preset: zEC12, z13, z14, z15. Default
	// z15.
	Config string `json:"config,omitempty"`
	// Workload names a synthetic workload (see zbp.Workloads).
	Workload string `json:"workload"`
	// Workload2, when set, runs on the second hardware thread (SMT2)
	// with seed+1.
	Workload2 string `json:"workload2,omitempty"`
	// Seed defaults to 42, the repository's convention.
	Seed *uint64 `json:"seed,omitempty"`
	// Instructions is the per-thread budget; defaults to the server's
	// DefaultInstructions and is capped at MaxInstructions.
	Instructions int `json:"instructions,omitempty"`
	// TimeoutMs bounds simulation wall time for this request (clamped
	// to the server's MaxTimeout).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// FullStats includes the schema-versioned stats snapshot (the
	// `zsim -stats-json` payload) in the response.
	FullStats bool `json:"full_stats,omitempty"`
}

// SimulateResponse is the POST /v1/simulate reply.
type SimulateResponse struct {
	Config       string            `json:"config"`
	Workload     string            `json:"workload"`
	Workload2    string            `json:"workload2,omitempty"`
	Seed         uint64            `json:"seed"`
	Instructions int64             `json:"instructions"`
	Branches     int64             `json:"branches"`
	Cycles       int64             `json:"cycles"`
	MPKI         float64           `json:"mpki"`
	IPC          float64           `json:"ipc"`
	Accuracy     float64           `json:"accuracy"`
	Truncated    bool              `json:"truncated"`
	Stats        *metrics.Snapshot `json:"stats,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: the cartesian product of
// Configs x Workloads x Seeds, each cell one bounded simulation.
type SweepRequest struct {
	Configs      []string `json:"configs,omitempty"` // default ["z15"]
	Workloads    []string `json:"workloads"`         // required
	Seeds        []uint64 `json:"seeds,omitempty"`   // default [42]
	Instructions int      `json:"instructions,omitempty"`
	TimeoutMs    int      `json:"timeout_ms,omitempty"`
}

// SweepCell is one grid point's outcome.
type SweepCell struct {
	Config       string  `json:"config"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Instructions int64   `json:"instructions"`
	Cycles       int64   `json:"cycles"`
	MPKI         float64 `json:"mpki"`
	IPC          float64 `json:"ipc"`
	Accuracy     float64 `json:"accuracy"`
	Truncated    bool    `json:"truncated"`
	Error        string  `json:"error,omitempty"`
}

// SweepResponse is the POST /v1/sweep reply, cells in grid order
// (configs outermost, seeds innermost).
type SweepResponse struct {
	Cells []SweepCell `json:"cells"`
	// Errors counts cells whose Error field is set, so clients can spot
	// partial failure without scanning the grid.
	Errors int `json:"errors"`
}

// CellRequest is the POST /v1/cell body: a simulate request plus the
// cache-bypass knob jobs already expose. /v1/cell is the coordinator's
// backend protocol: a cache hit never takes a queue slot, a miss takes
// one like a sync simulate (a full queue answers 429, which the
// coordinator treats as a reroute signal), and the reply is the
// canonical stats payload, so any replica — or a hedged duplicate —
// returns byte-identical content.
type CellRequest struct {
	SimulateRequest
	// NoCache forces recomputation and skips the result cache on both
	// read and write.
	NoCache bool `json:"no_cache,omitempty"`
}

// CellResponse is the POST /v1/cell reply.
type CellResponse struct {
	// Cached reports that no simulation ran for this request.
	Cached bool `json:"cached"`
	// Stats is the canonical schema-versioned stats JSON for the cell.
	Stats json.RawMessage `json:"stats"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- plans and sync handlers ------------------------------------------

// plan is one validated request: the job kind it runs as ("" for
// /v1/cell), the cells it charges the admission bucket, its sync
// deadline and the run that resolves it. A sync request runs
// run(ctx, nil); a job runs run(ctx, j), and a non-nil j is the one
// sign that the caller publishes events and waits out a full local
// queue.
type plan struct {
	kind      string
	cells     int
	timeoutMs int
	run       func(ctx context.Context, j *jobs.Job) (any, error)
}

// accept is the front door of every route that runs cells: it counts
// the request, decodes the body into req (400/413), builds the plan
// (400) and charges admission (429). It reports false once it has
// answered.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, req any, build func() (plan, error)) (plan, bool) {
	s.Requests.Add(1)
	if !s.Decode(w, r, req) {
		return plan{}, false
	}
	p, err := build()
	if err != nil {
		s.Fail(w, http.StatusBadRequest, err)
		return plan{}, false
	}
	return p, s.admit(w, p.cells)
}

// serveSync is the shape of every sync route: accept, run the plan
// under the request deadline, reply.
func (s *Server) serveSync(w http.ResponseWriter, r *http.Request, req any, build func() (plan, error)) {
	p, ok := s.accept(w, r, req, build)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, p.timeoutMs)
	defer cancel()
	resp, err := p.run(ctx, nil)
	if err != nil {
		s.replyError(w, err)
		return
	}
	s.Completed.Add(1)
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	s.serveSync(w, r, &req, func() (plan, error) { return s.planSimulate(&req, false) })
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	s.serveSync(w, r, &req, func() (plan, error) { return s.planSweep(&req, false) })
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	s.serveSync(w, r, &req, func() (plan, error) { return s.planDiff(&req) })
}

// handleCell is one decode plus one Exec: a cache hit never takes a
// queue slot.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req CellRequest
	s.serveSync(w, r, &req, func() (plan, error) {
		cell, err := s.normalizeSimulate(&req.SimulateRequest)
		return plan{cells: 1, timeoutMs: req.TimeoutMs, run: func(ctx context.Context, _ *jobs.Job) (any, error) {
			out, err := s.execCell(ctx, cell, req.NoCache, false)
			return CellResponse{Cached: out.Cached, Stats: out.Stats}, err
		}}, err
	})
}

// planSimulate validates a simulate request into its plan. Like every
// plan* function it returns the kind even when validation fails, so a
// job's kind check can still win.
func (s *Server) planSimulate(req *SimulateRequest, noCache bool) (plan, error) {
	cell, err := s.normalizeSimulate(req)
	return plan{kind: "simulate", cells: 1, timeoutMs: req.TimeoutMs, run: func(ctx context.Context, j *jobs.Job) (any, error) {
		return s.simulate(ctx, *req, cell, noCache, j)
	}}, err
}

// planSweep applies sweep defaults in place and validates the grid.
func (s *Server) planSweep(req *SweepRequest, noCache bool) (plan, error) {
	if len(req.Seeds) == 0 {
		req.Seeds = []uint64{42}
	}
	cells, err := s.normalizeGrid("sweep", &req.Configs, req.Workloads, len(req.Seeds), &req.Instructions)
	return plan{kind: "sweep", cells: cells, timeoutMs: req.TimeoutMs, run: func(ctx context.Context, j *jobs.Job) (any, error) {
		return s.runGrid(ctx, *req, noCache, j)
	}}, err
}

// Health is the single box's GET /healthz body: liveness plus the load
// signals a coordinator's Retry-After and run_seconds_ewma read, as
// cheap JSON — no Prometheus text parsing on the polling path.
type Health struct {
	Status        string `json:"status"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Inflight      int64  `json:"inflight"`
	// RunSecondsEWMA is the smoothed per-queue-slot task duration; a
	// coordinator multiplies it by queue occupancy to estimate wait.
	RunSecondsEWMA float64 `json:"run_seconds_ewma"`
}

// --- validation -------------------------------------------------------

// normalizeSimulate applies request defaults in place and validates
// against the limits, returning the cell the request names. Shared by
// planSimulate and /v1/cell, so both accept exactly the same requests.
func (s *Server) normalizeSimulate(req *SimulateRequest) (rcache.CellSpec, error) {
	if req.Config == "" {
		req.Config = "z15"
	}
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	if req.Instructions == 0 {
		req.Instructions = s.cfg.DefaultInstructions
	}
	if _, err := core.ByName(req.Config); err != nil {
		return rcache.CellSpec{}, err
	}
	if err := s.resolveWorkloads(&req.Workload, &req.Workload2); err != nil {
		return rcache.CellSpec{}, err
	}
	if err := s.checkInstructions(req.Instructions); err != nil {
		return rcache.CellSpec{}, err
	}
	return rcache.CellSpec{
		Config: req.Config, Workload: req.Workload, Workload2: req.Workload2,
		Seed: seed, Instructions: req.Instructions,
	}, nil
}

// normalizeGrid fills the defaults of a configs x workloads x seeds
// grid in place and validates it, returning its cell count.
func (s *Server) normalizeGrid(kind string, configs *[]string, workloads []string, seeds int, instructions *int) (int, error) {
	if len(*configs) == 0 {
		*configs = []string{"z15"}
	}
	if *instructions == 0 {
		*instructions = s.cfg.DefaultInstructions
	}
	if err := s.checkInstructions(*instructions); err != nil {
		return 0, err
	}
	cells := len(*configs) * len(workloads) * seeds
	if cells == 0 {
		return 0, fmt.Errorf("empty %s grid: need workloads", kind)
	}
	if cells > s.cfg.MaxSweepCells {
		return 0, fmt.Errorf("%s grid has %d cells, limit %d", kind, cells, s.cfg.MaxSweepCells)
	}
	for _, name := range *configs {
		if _, err := core.ByName(name); err != nil {
			return 0, err
		}
	}
	refs := make([]*string, len(workloads))
	for i := range workloads {
		refs[i] = &workloads[i]
	}
	return cells, s.resolveWorkloads(refs...)
}

func (s *Server) checkInstructions(n int) error {
	if n < 0 || n > s.cfg.MaxInstructions {
		return fmt.Errorf("instructions %d out of range [1, %d]", n, s.cfg.MaxInstructions)
	}
	return nil
}

// resolveWorkloads validates workload names before a request consumes
// capacity, rewriting them in place: generator names must be in the
// registry, and path-backed names (file:/spec:) go through the
// executor's TraceName, so the cache, the executor and the audit all
// see one canonical name. Empty names in the tail (unset workload2) are
// ignored, but the first name is required.
func (s *Server) resolveWorkloads(names ...*string) error {
	if len(names) == 0 || *names[0] == "" {
		return errors.New("missing workload")
	}
	reg := workload.Registry()
	for _, np := range names {
		name := *np
		switch {
		case name == "":
		case workload.PathBacked(name):
			resolved, err := s.exec.TraceName(name)
			if err != nil {
				return err
			}
			*np = resolved
		default:
			if _, ok := reg[name]; !ok {
				return fmt.Errorf("unknown workload %q (have %v)", name, workload.Names())
			}
		}
	}
	return nil
}

// --- plumbing ---------------------------------------------------------

// requestContext derives a sync request's context: the request's own
// context (canceled on client disconnect and server shutdown) bounded
// by the effective timeout.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), min(timeout, s.cfg.MaxTimeout))
}

// admit charges the admission bucket one token per cell. On refusal it
// answers 429 with a Retry-After that is the larger of the bucket's
// refill horizon and the executor's own estimate.
func (s *Server) admit(w http.ResponseWriter, cells int) bool {
	if s.bucket == nil {
		return true
	}
	ok, wait := s.bucket.take(float64(cells))
	if ok {
		return true
	}
	s.reject(w, max(clampSeconds(wait), s.retryAfterSeconds()), "admission limit reached, retry later")
	return false
}

// reject answers 429 with a Retry-After of secs.
func (s *Server) reject(w http.ResponseWriter, secs int, msg string) {
	s.Rejected.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteJSON(w, http.StatusTooManyRequests, errorResponse{Error: msg})
}

// retryAfterSeconds is the executor's capacity estimate as a
// Retry-After value.
func (s *Server) retryAfterSeconds() int { return clampSeconds(s.exec.RetryAfter()) }

// clampSeconds rounds d up to whole seconds in [1, 60]: an honest
// Retry-After hint, neither a hammering 0 nor a give-up hour.
func clampSeconds(d time.Duration) int {
	return min(max(int(math.Ceil(d.Seconds())), 1), 60)
}

// replyError maps a failed sync request onto a status: a full local
// queue is 429, shutdown 503, the caller's deadline 504 and its
// cancellation 503. Anything else is the role's FailStatus (500 on a
// single box, 502 from a fleet).
func (s *Server) replyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.reject(w, s.retryAfterSeconds(), "job queue full, retry later")
	case errors.Is(err, errShuttingDown):
		WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server shutting down"})
	case errors.Is(err, context.DeadlineExceeded):
		s.Canceled.Add(1)
		WriteJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "simulation deadline exceeded"})
	case errors.Is(err, context.Canceled):
		// Client disconnect or server shutdown; the response is mostly
		// for the log.
		s.Canceled.Add(1)
		WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request canceled"})
	default:
		s.Fail(w, s.role.FailStatus, err)
	}
}

// Decode parses a size-limited JSON body with unknown fields refused,
// answering 400/413 itself.
func (s *Server) Decode(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.Fail(w, http.StatusRequestEntityTooLarge, err)
		} else {
			s.Fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		return false
	}
	return true
}

// Fail counts a failed request and answers {"error": ...} with code.
func (s *Server) Fail(w http.ResponseWriter, code int, err error) {
	s.Failed.Add(1)
	WriteJSON(w, code, errorResponse{Error: err.Error()})
}

// WriteJSON renders v indented by two spaces, the form of every reply.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
