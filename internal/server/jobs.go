package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"zbp/internal/equiv"
	"zbp/internal/jobs"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
	"zbp/internal/runner"
)

// Async job API. A job is a simulate/sweep/diff request that runs
// outside the submitting HTTP request: submission validates, admits
// and answers immediately with a job ID, a runner goroutine resolves
// the cells through the executor (waiting out a full local queue
// rather than failing — the client already holds an ID), and clients
// poll GET /v1/jobs/{id} or follow the JSONL event stream.
//
// Simulate and sweep cells route through the result cache; diff jobs
// never cache — the harness's whole point is to recompute.

// JobRequest is the POST /v1/jobs body: a kind plus exactly one
// matching payload. Kind may be omitted when exactly one payload is
// set.
type JobRequest struct {
	Kind     string           `json:"kind,omitempty"` // "simulate", "sweep", "diff"
	Simulate *SimulateRequest `json:"simulate,omitempty"`
	Sweep    *SweepRequest    `json:"sweep,omitempty"`
	Diff     *DiffRequest     `json:"diff,omitempty"`
	// TimeoutMs bounds the job's execution wall time (clamped to the
	// server's MaxTimeout, which is also the default). The payloads'
	// own timeout_ms fields are ignored for jobs: the job deadline is
	// the only one.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// NoCache forces recomputation and skips the result cache on both
	// read and write — the escape hatch for benchmarking and for
	// distrust.
	NoCache bool `json:"no_cache,omitempty"`
}

// CellEvent is the JSONL progress line published after every finished
// simulate or sweep cell. Backend and Hedged attribute fleet cells; a
// single box leaves them out.
type CellEvent struct {
	Type      string `json:"type"` // "cell"
	Index     int    `json:"index"`
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	Config    string `json:"config"`
	Workload  string `json:"workload"`
	Workload2 string `json:"workload2,omitempty"`
	Seed      uint64 `json:"seed"`
	// Cached marks a cell served without a simulation.
	Cached       bool    `json:"cached"`
	Backend      string  `json:"backend,omitempty"`
	Hedged       bool    `json:"hedged,omitempty"`
	Instructions int64   `json:"instructions,omitempty"`
	Cycles       int64   `json:"cycles,omitempty"`
	MPKI         float64 `json:"mpki"`
	IPC          float64 `json:"ipc"`
	Accuracy     float64 `json:"accuracy"`
	Error        string  `json:"error,omitempty"`
	// RunSecondsEWMA is the executor's smoothed per-cell duration at
	// publish time, so a streaming client can project the remaining
	// wall time of the sweep.
	RunSecondsEWMA float64 `json:"run_seconds_ewma"`
}

// diffCellEvent is the JSONL progress line for diff-job cells.
type diffCellEvent struct {
	Type     string `json:"type"` // "diff_cell"
	Index    int    `json:"index"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Checks   int    `json:"checks"`
	OK       bool   `json:"ok"`
	Findings int    `json:"findings"`
	Error    string `json:"error,omitempty"`
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if s.baseCtx.Err() != nil {
		s.Requests.Add(1)
		WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server shutting down"})
		return
	}
	var req JobRequest
	p, ok := s.accept(w, r, &req, func() (plan, error) { return s.planJob(&req) })
	if !ok {
		return
	}
	j, err := s.jobs.Create(p.kind, p.cells)
	if err != nil {
		// The job never runs, so its admission tokens go back: a client
		// retrying against a full table must not drain the bucket.
		if s.bucket != nil {
			s.bucket.refund(float64(p.cells))
		}
		s.reject(w, s.retryAfterSeconds(), "job table full, retry later")
		return
	}
	s.JobsSubmitted.Add(1)

	timeout := s.cfg.MaxTimeout
	if req.TimeoutMs > 0 {
		timeout = min(time.Duration(req.TimeoutMs)*time.Millisecond, timeout)
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	j.SetCancel(cancel)
	s.asyncWG.Add(1)
	go s.runJob(ctx, cancel, j, p)

	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	WriteJSON(w, http.StatusCreated, j.Snapshot())
}

// planJob validates the one payload through the same plan* function
// its sync endpoint calls. A kind mismatch wins over a payload error.
func (s *Server) planJob(req *JobRequest) (plan, error) {
	set := 0
	for _, p := range []bool{req.Simulate != nil, req.Sweep != nil, req.Diff != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return plan{}, fmt.Errorf("need exactly one of simulate/sweep/diff payloads, have %d", set)
	}
	var (
		p   plan
		err error
	)
	switch {
	case req.Simulate != nil:
		p, err = s.planSimulate(req.Simulate, req.NoCache)
	case req.Sweep != nil:
		p, err = s.planSweep(req.Sweep, req.NoCache)
	default:
		p, err = s.planDiff(req.Diff)
	}
	if req.Kind != "" && req.Kind != p.kind {
		return plan{}, fmt.Errorf("kind %q does not match the %s payload", req.Kind, p.kind)
	}
	return p, err
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		// Cancel fires the job's context cancel with no locks held; the
		// runner observes it cooperatively (sim.RunCtx polls) and the
		// job transitions to canceled asynchronously.
		j.Cancel(s.role.Now(), "canceled by client")
		WriteJSON(w, http.StatusOK, j.Snapshot())
	}
}

// lookupJob counts a job request and finds its job, answering 404
// itself when the ID is unknown or evicted.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	s.Requests.Add(1)
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, errorResponse{Error: "no such job (unknown ID or evicted after TTL)"})
	}
	return j, ok
}

// handleJobEvents streams the job's event history and then live
// events as JSONL until the job reaches a terminal state or the
// client disconnects.
//
// Locking contract (the deadlock-regression suite pins this): the
// handler never writes to the connection while holding any job or
// store lock. It pulls batches with EventsSince (a short critical
// section that copies slice headers), writes them lock-free, and
// parks on a capacity-1 notification channel that publishers signal
// without blocking. A reader that stalls mid-write therefore stalls
// only itself — publishers, cancellation, and the job table never
// wait on it.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ch := j.Subscribe()
	defer j.Unsubscribe(ch)
	cursor := 0
	for {
		lines, terminal := j.EventsSince(cursor)
		cursor += len(lines)
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n")); err != nil {
				return
			}
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// Finish appends the done event before flipping the state
			// (one critical section), so a terminal read has already
			// handed us the last line.
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// --- execution --------------------------------------------------------

// runJob drives one job to a terminal state. A job is running from
// submission; its cells then wait for executor capacity.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *jobs.Job, p plan) {
	defer s.asyncWG.Done()
	defer cancel()
	if !j.Start(s.role.Now()) {
		return
	}
	resp, err := p.run(ctx, j)
	var result []byte
	if err == nil {
		// Compact marshal: the job result bytes are the same on every role.
		result, err = json.Marshal(resp)
	}
	s.finishJob(j, result, err)
}

// finishJob moves a job to its terminal state: done with its result,
// canceled (by the client, its deadline or shutdown), or failed.
func (s *Server) finishJob(j *jobs.Job, result []byte, err error) {
	now := s.role.Now()
	switch {
	case err == nil:
		s.Completed.Add(1)
		j.Finish(now, jobs.Done, "", result)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.Canceled.Add(1)
		j.Finish(now, jobs.Canceled, err.Error(), nil)
	case errors.Is(err, errShuttingDown):
		s.Canceled.Add(1)
		j.Finish(now, jobs.Canceled, "server shutting down", nil)
	default:
		s.Failed.Add(1)
		j.Finish(now, jobs.Failed, err.Error(), nil)
	}
}

// --- cells and grids --------------------------------------------------

// execCell resolves one cell through the result cache and counts it. A
// patient caller (a job) waits out a full local queue; a sync request
// answers it with 429.
func (s *Server) execCell(ctx context.Context, cell rcache.CellSpec, noCache, patient bool) (Outcome, error) {
	var out Outcome
	err := retryFull(ctx, patient, func() (err error) {
		out, err = s.cache.Exec(ctx, cell, noCache)
		return err
	})
	if err != nil {
		return Outcome{}, err
	}
	s.Cells.Add(1)
	if out.Cached {
		s.CellsCached.Add(1)
	}
	return out, nil
}

// retryFull runs try until it returns anything but a full local queue.
// Only a patient caller retries, after a short backoff: a job's client
// already holds an ID, while a sync request answers the full queue 429.
func retryFull(ctx context.Context, patient bool, try func() error) error {
	for {
		err := try()
		if !patient || !errors.Is(err, errQueueFull) {
			return err
		}
		t := time.NewTimer(25 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// simulate resolves one cell and shapes it as the simulate response. A
// job (non-nil j) waits out a full queue and publishes the cell event.
func (s *Server) simulate(ctx context.Context, req SimulateRequest, cell rcache.CellSpec, noCache bool, j *jobs.Job) (SimulateResponse, error) {
	out, err := s.execCell(ctx, cell, noCache, j != nil)
	if err != nil {
		return SimulateResponse{}, err
	}
	snap, sum, err := Summarize(cell, out.Stats)
	if err != nil {
		return SimulateResponse{}, err
	}
	if j != nil {
		j.CellDone(out.Cached)
		ev := s.cellEvent(cell, out, sum)
		ev.Done, ev.Total = 1, 1
		j.Publish(ev)
	}
	resp := SimulateResponse{
		Config:       cell.Config,
		Workload:     cell.Workload,
		Workload2:    cell.Workload2,
		Seed:         cell.Seed,
		Instructions: sum.Instructions,
		Branches:     sum.Branches,
		Cycles:       sum.Cycles,
		MPKI:         sum.MPKI,
		IPC:          sum.IPC,
		Accuracy:     sum.Accuracy,
	}
	if req.FullStats {
		resp.Stats = snap
	}
	return resp, nil
}

func (s *Server) cellEvent(cell rcache.CellSpec, out Outcome, sum CellSummary) CellEvent {
	return CellEvent{
		Type: "cell", Config: cell.Config, Workload: cell.Workload, Workload2: cell.Workload2,
		Seed: cell.Seed, Cached: out.Cached, Backend: out.Backend, Hedged: out.Hedged,
		Instructions: sum.Instructions, Cycles: sum.Cycles,
		MPKI: sum.MPKI, IPC: sum.IPC, Accuracy: sum.Accuracy,
		RunSecondsEWMA: s.exec.RunSecondsEWMA(),
	}
}

// runGrid resolves every cell of a sweep grid through runner.Each, the
// role's GridWidth at a time: one by one on a single box (one worker
// per sweep, events in grid order), all at once on a fleet. Rows are
// position-assigned in equiv.Grid order — configs outermost, seeds
// innermost — and derived from canonical stats through Summarize, so
// the response marshals the same bytes on every role. A failed cell is
// its row's error; the grid as a whole fails only when ctx dies or the
// local queue refuses a sync request, and no cell starts after that. A
// job (non-nil j) waits out a full local queue and publishes one cell
// event per finished cell, serialized, with Done increasing.
func (s *Server) runGrid(ctx context.Context, req SweepRequest, noCache bool, j *jobs.Job) (SweepResponse, error) {
	cells := equiv.Grid(req.Configs, req.Workloads, req.Seeds, req.Instructions)
	rows := make([]SweepCell, len(cells))
	var (
		mu   sync.Mutex // serializes events and guards done and stop
		done int
		stop error
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return stop != nil
	}
	width := s.role.GridWidth
	if width <= 0 {
		width = len(cells)
	}
	runner.Each(ctx, len(cells), width, func(i int) {
		if failed() {
			return
		}
		row, ev, err := s.gridCell(ctx, cells[i], noCache, j != nil)
		rows[i] = row
		mu.Lock()
		defer mu.Unlock()
		if stop == nil {
			stop = err
		}
		if stop == nil && j != nil {
			done++
			ev.Index, ev.Done, ev.Total = i, done, len(cells)
			if ev.Error == "" {
				j.CellDone(ev.Cached)
			}
			j.Publish(ev)
		}
	}, func(int) {
		mu.Lock()
		defer mu.Unlock()
		if stop == nil {
			stop = ctx.Err()
		}
	})
	if stop != nil {
		return SweepResponse{}, stop
	}
	resp := SweepResponse{Cells: rows}
	for _, row := range rows {
		if row.Error != "" {
			resp.Errors++
		}
	}
	return resp, nil
}

// gridCell resolves one grid position into its row and event. Its error
// is the whole grid's: ctx died, or the local queue refused the cell.
// Any other failure is the row's own.
func (s *Server) gridCell(ctx context.Context, cell rcache.CellSpec, noCache, patient bool) (SweepCell, CellEvent, error) {
	row := SweepCell{Config: cell.Config, Workload: cell.Workload, Seed: cell.Seed}
	out, err := s.execCell(ctx, cell, noCache, patient)
	var sum CellSummary
	if err == nil {
		_, sum, err = Summarize(cell, out.Stats)
	}
	switch {
	case err != nil && ctx.Err() != nil:
		return row, CellEvent{}, ctx.Err()
	case errors.Is(err, errQueueFull), errors.Is(err, errShuttingDown):
		return row, CellEvent{}, err
	case err != nil:
		s.CellErrors.Add(1)
		row.Error = err.Error()
		ev := s.cellEvent(cell, Outcome{}, CellSummary{})
		ev.Error = row.Error
		return row, ev, nil
	}
	row.Instructions, row.Cycles = sum.Instructions, sum.Cycles
	row.MPKI, row.IPC, row.Accuracy = sum.MPKI, sum.IPC, sum.Accuracy
	return row, s.cellEvent(cell, out, sum), nil
}

// CellSummary is the headline numbers reconstructed from a canonical
// stats payload — the cache stores only the canonical stats JSON (the
// byte-exact form the auditor re-derives), so API rows are a pure
// function of it. That is what makes a fleet sweep byte-identical to a
// single-box one.
type CellSummary struct {
	Instructions int64
	Branches     int64
	Cycles       int64
	MPKI         float64
	IPC          float64
	Accuracy     float64
}

// Summarize decodes a canonical stats payload into its snapshot and
// headline numbers.
func Summarize(cell rcache.CellSpec, stats []byte) (*metrics.Snapshot, CellSummary, error) {
	var snap metrics.Snapshot
	if err := json.Unmarshal(stats, &snap); err != nil {
		return nil, CellSummary{}, fmt.Errorf("cell %v: undecodable stats payload: %w", cell, err)
	}
	return &snap, CellSummary{
		Instructions: int64(snap.Gauges["sim.instructions"]),
		Branches:     int64(snap.Gauges["sim.branches"]),
		Cycles:       snap.Counters["sim.cycles"],
		MPKI:         snap.Gauges["sim.mpki"],
		IPC:          snap.Gauges["sim.ipc"],
		Accuracy:     snap.Gauges["sim.accuracy"],
	}, nil
}
