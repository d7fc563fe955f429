// Package jobs is the async job table behind zbpd's /v1/jobs API: a
// bounded in-memory store of submitted work items with lifecycle
// states, per-cell progress, an append-only JSONL event history, and
// TTL eviction of finished jobs.
//
// Locking discipline (the reason this package exists instead of a map
// on the server): the store lock covers only table membership, and
// each job's lock covers only its own fields for the duration of a
// field copy. Event streaming is pull-based — a subscriber holds a
// cursor and re-reads EventsSince under the job lock, then writes to
// the network with no lock held — and publish-side notification is a
// non-blocking signal send. No lock is ever held across a stream
// write, a simulation, or a cancel callback, so a slow or stuck
// reader can never wedge publishers, cancellation, or the table.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zbp/internal/hashx"
)

// State is a job's lifecycle position.
type State string

const (
	// Queued: accepted into the table, waiting for a worker slot.
	Queued State = "queued"
	// Running: executing cells.
	Running State = "running"
	// Done: every cell finished and the result is attached.
	Done State = "done"
	// Failed: execution errored; Error holds the cause.
	Failed State = "failed"
	// Canceled: stopped by DELETE, deadline, or server drain.
	Canceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// ErrFull is returned by Create when the table is at capacity — the
// admission-control signal behind HTTP 429 on job submission.
var ErrFull = errors.New("jobs: job table full")

// Progress counts a job's cells.
type Progress struct {
	CellsTotal  int `json:"cells_total"`
	CellsDone   int `json:"cells_done"`
	CellsCached int `json:"cells_cached"`
}

// Status is a point-in-time copy of a job, shaped for the API.
type Status struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	State      State  `json:"state"`
	CreatedMs  int64  `json:"created_unix_ms"`
	StartedMs  int64  `json:"started_unix_ms,omitempty"`
	FinishedMs int64  `json:"finished_unix_ms,omitempty"`
	// WallMs is start-to-finish execution time; for a cache-served job
	// it is the honest near-zero number the acceptance test pins.
	WallMs   int64           `json:"wall_ms"`
	Progress Progress        `json:"progress"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// Options size a Store. The zero value gets production-lean defaults.
type Options struct {
	// MaxJobs bounds the table (queued+running+finished-not-yet-
	// evicted). Default: 64.
	MaxJobs int
	// TTL is how long a finished job stays pollable before eviction.
	// Default: 15m.
	TTL time.Duration
	// MaxEvents caps one job's event history; past it, events are
	// dropped and a single truncation marker is appended. Default:
	// 4096 (a full 64-cell sweep emits ~67).
	MaxEvents int
	// Now supplies the clock; tests inject a fake one to drive TTL
	// eviction deterministically. Default: time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxJobs <= 0 {
		o.MaxJobs = 64
	}
	if o.TTL <= 0 {
		o.TTL = 15 * time.Minute
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 4096
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Store is the bounded job table.
type Store struct {
	opts Options

	mu   sync.Mutex
	jobs map[string]*Job
	seq  uint64

	evicted atomic.Int64
	// Lifetime terminal-transition tallies, bumped exactly once per
	// job as it reaches its final state (eviction does not re-count).
	done     atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
}

// NewStore builds an empty table.
func NewStore(opts Options) *Store {
	return &Store{opts: opts.withDefaults(), jobs: make(map[string]*Job)}
}

// Create admits a new job in state Queued, evicting expired finished
// jobs first. ErrFull when the table is at capacity even after
// eviction.
func (s *Store) Create(kind string, cellsTotal int) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	if len(s.jobs) >= s.opts.MaxJobs {
		return nil, ErrFull
	}
	s.seq++
	// Mix the sequence so IDs don't leak submission counts; the table
	// is in-memory, so uniqueness per process is all that's needed.
	id := fmt.Sprintf("j%016x", hashx.Mix(s.seq))
	j := &Job{
		id:        id,
		kind:      kind,
		store:     s,
		state:     Queued,
		created:   s.opts.Now(),
		maxEvents: s.opts.MaxEvents,
		subs:      make(map[chan struct{}]struct{}),
	}
	j.progress.CellsTotal = cellsTotal
	j.publishLocked(statusEvent{Type: "status", State: Queued, CellsTotal: cellsTotal})
	s.jobs[id] = j
	return j, nil
}

// Get returns the job by ID; expired jobs are evicted on the way, so
// a post-TTL lookup is an honest miss (HTTP 404).
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	j, ok := s.jobs[id]
	return j, ok
}

// Len returns current table occupancy.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Active counts jobs not yet in a terminal state.
func (s *Store) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !j.Snapshot().State.Terminal() {
			n++
		}
	}
	return n
}

// Evicted returns the lifetime TTL-eviction count.
func (s *Store) Evicted() int64 { return s.evicted.Load() }

// DoneCount returns how many jobs ever finished in state Done.
func (s *Store) DoneCount() int64 { return s.done.Load() }

// FailedCount returns how many jobs ever finished in state Failed.
func (s *Store) FailedCount() int64 { return s.failed.Load() }

// CanceledCount returns how many jobs ever finished in state Canceled.
func (s *Store) CanceledCount() int64 { return s.canceled.Load() }

// noteTerminal records one job's terminal transition. Jobs call it
// exactly once, inside the critical section that flips the state.
func (s *Store) noteTerminal(state State) {
	if s == nil {
		return
	}
	switch state {
	case Done:
		s.done.Add(1)
	case Failed:
		s.failed.Add(1)
	case Canceled:
		s.canceled.Add(1)
	}
}

// evictLocked drops finished jobs whose TTL has lapsed. Only terminal
// jobs are eligible: a running job is never evicted out from under
// its worker.
func (s *Store) evictLocked() {
	now := s.opts.Now()
	for id, j := range s.jobs {
		if j.expired(now, s.opts.TTL) {
			delete(s.jobs, id)
			s.evicted.Add(1)
		}
	}
}

// Job is one work item. All methods are safe for concurrent use.
type Job struct {
	id    string
	kind  string
	store *Store // terminal-transition counters; nil in bare tests

	mu        sync.Mutex
	state     State
	created   time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	result    []byte
	cancel    context.CancelFunc
	progress  Progress
	events    [][]byte
	maxEvents int
	truncated bool
	subs      map[chan struct{}]struct{}
}

// Event payloads the job publishes itself; the service adds its own
// per-cell events through Publish.
type statusEvent struct {
	Type       string `json:"type"`
	State      State  `json:"state"`
	CellsTotal int    `json:"cells_total,omitempty"`
}

type doneEvent struct {
	Type     string   `json:"type"`
	State    State    `json:"state"`
	Error    string   `json:"error,omitempty"`
	WallMs   int64    `json:"wall_ms"`
	Progress Progress `json:"progress"`
}

type truncEvent struct {
	Type    string `json:"type"`
	Dropped string `json:"dropped"`
}

// ID returns the job's table key.
func (j *Job) ID() string { return j.id }

// SetCancel attaches the context cancel the job's DELETE handler
// fires. If the job was already canceled before the runner attached
// it (DELETE racing submission), the cancel fires immediately.
func (j *Job) SetCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	fire := j.state == Canceled
	if !fire {
		j.cancel = cancel
	}
	j.mu.Unlock()
	if fire {
		cancel()
	}
}

// Start moves Queued -> Running, stamping the clock. It reports false
// when the job reached a terminal state first (canceled while
// queued); the runner must then skip execution.
func (j *Job) Start(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Queued {
		return false
	}
	j.state = Running
	j.started = now
	j.publishLocked(statusEvent{Type: "status", State: Running})
	return true
}

// Finish moves the job to a terminal state, attaches the result or
// error, and appends the final "done" event in the same critical
// section — so a streamer that observes the terminal state is
// guaranteed the done event is already in its history (no lost final
// line).
func (j *Job) Finish(now time.Time, state State, errMsg string, result []byte) {
	if !state.Terminal() {
		panic("jobs: Finish with non-terminal state " + string(state))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.finished = now
	j.errMsg = errMsg
	j.result = result
	j.store.noteTerminal(state)
	j.publishLocked(doneEvent{Type: "done", State: state, Error: errMsg,
		WallMs: j.wallMsLocked(), Progress: j.progress})
}

// Cancel requests cancellation. It reports false if the job is
// already terminal. The attached context cancel (if any) fires with
// no job lock held; a queued job without a context yet is flipped to
// Canceled directly so it evicts normally even if no runner ever
// claims it.
func (j *Job) Cancel(now time.Time, reason string) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	cancel := j.cancel
	if j.state == Queued && cancel == nil {
		j.state = Canceled
		j.finished = now
		j.errMsg = reason
		j.store.noteTerminal(Canceled)
		j.publishLocked(doneEvent{Type: "done", State: Canceled, Error: reason,
			WallMs: 0, Progress: j.progress})
		j.mu.Unlock()
		return true
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// CellDone advances progress counters.
func (j *Job) CellDone(cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress.CellsDone++
	if cached {
		j.progress.CellsCached++
	}
}

// Publish appends one marshaled event line to the history and wakes
// subscribers. Marshaling failures are programming errors and panic.
func (j *Job) Publish(v any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(v)
}

// publishLocked marshals and appends under j.mu. Subscriber wakeups
// are non-blocking signal sends into capacity-1 channels: a slow
// subscriber simply finds one pending signal and re-reads its cursor,
// so publishing never waits on any reader.
func (j *Job) publishLocked(v any) {
	if len(j.events) >= j.maxEvents {
		if !j.truncated {
			j.truncated = true
			if b, err := json.Marshal(truncEvent{Type: "truncated", Dropped: "event history at capacity"}); err == nil {
				j.events = append(j.events, b)
			}
		}
		// Terminal events must still land: replace the marker slot's
		// successor policy is overkill; just allow done events through.
		if _, isDone := v.(doneEvent); !isDone {
			j.notifyLocked()
			return
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic("jobs: unmarshalable event: " + err.Error())
	}
	j.events = append(j.events, b)
	j.notifyLocked()
}

func (j *Job) notifyLocked() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Subscribe registers for new-event signals. The returned channel has
// capacity 1 and carries edge-triggered "something changed" pulses;
// pair it with EventsSince cursor reads. Always Unsubscribe.
func (j *Job) Subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

// Unsubscribe removes a subscriber channel.
func (j *Job) Unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// EventsSince returns the event lines appended at or after cursor
// position i, plus whether the job is terminal. Because Finish
// appends the done event and flips the state atomically, terminal ==
// true guarantees the returned slice ends the stream: no event will
// ever follow. The line slices are immutable; callers write them out
// with no lock held.
func (j *Job) EventsSince(i int) (lines [][]byte, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i < len(j.events) {
		lines = j.events[i:len(j.events):len(j.events)]
	}
	return lines, j.state.Terminal()
}

// Snapshot copies the job's externally-visible state.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.id,
		Kind:      j.kind,
		State:     j.state,
		CreatedMs: j.created.UnixMilli(),
		WallMs:    j.wallMsLocked(),
		Progress:  j.progress,
		Error:     j.errMsg,
	}
	if !j.started.IsZero() {
		st.StartedMs = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.FinishedMs = j.finished.UnixMilli()
	}
	if j.state == Done {
		st.Result = j.result
	}
	return st
}

// wallMsLocked measures execution wall time: start to finish, or
// start to "still running" zero-extended by the caller's clock. It is
// 0 until the job starts.
func (j *Job) wallMsLocked() int64 {
	if j.started.IsZero() || j.finished.IsZero() || j.finished.Before(j.started) {
		return 0
	}
	return j.finished.Sub(j.started).Milliseconds()
}

// expired reports whether a terminal job's TTL lapsed at now.
func (j *Job) expired(now time.Time, ttl time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && !j.finished.IsZero() && now.Sub(j.finished) >= ttl
}
