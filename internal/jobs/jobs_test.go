package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// fakeClock is an injectable clock for TTL tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                { return c.t }
func (c *fakeClock) advance(d time.Duration)       { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                     { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func newStore(clk *fakeClock, opts Options) *Store { opts.Now = clk.now; return NewStore(opts) }

func TestLifecycleHappyPath(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{})
	j, err := s.Create("sweep", 4)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Snapshot(); st.State != Queued || st.Progress.CellsTotal != 4 {
		t.Fatalf("fresh job snapshot %+v", st)
	}
	if !j.Start(clk.now()) {
		t.Fatal("Start refused a queued job")
	}
	if j.Start(clk.now()) {
		t.Fatal("double Start succeeded")
	}
	j.CellDone(false)
	j.CellDone(true)
	clk.advance(250 * time.Millisecond)
	j.Finish(clk.now(), Done, "", []byte(`{"cells":[]}`))

	st := j.Snapshot()
	if st.State != Done || st.WallMs != 250 {
		t.Errorf("done snapshot state=%s wall=%d, want done/250", st.State, st.WallMs)
	}
	if st.Progress.CellsDone != 2 || st.Progress.CellsCached != 1 {
		t.Errorf("progress %+v", st.Progress)
	}
	if string(st.Result) != `{"cells":[]}` {
		t.Errorf("result %q", st.Result)
	}
	if s.DoneCount() != 1 || s.FailedCount() != 0 || s.CanceledCount() != 0 {
		t.Errorf("terminal counters done=%d failed=%d canceled=%d",
			s.DoneCount(), s.FailedCount(), s.CanceledCount())
	}

	// Finish is first-writer-wins: a late cancel must not overwrite.
	j.Finish(clk.now(), Canceled, "late", nil)
	if st := j.Snapshot(); st.State != Done {
		t.Errorf("late Finish overwrote terminal state: %s", st.State)
	}
	if s.CanceledCount() != 0 {
		t.Error("late Finish double-counted a terminal transition")
	}
}

func TestResultOnlyOnDone(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{})
	j, _ := s.Create("simulate", 1)
	j.Start(clk.now())
	j.Finish(clk.now(), Failed, "exploded", []byte("partial"))
	st := j.Snapshot()
	if st.Result != nil {
		t.Errorf("failed job exposes a result: %q", st.Result)
	}
	if st.Error != "exploded" {
		t.Errorf("error %q", st.Error)
	}
}

func TestCreateFullTable(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{MaxJobs: 2})
	if _, err := s.Create("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("b", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("c", 1); !errors.Is(err, ErrFull) {
		t.Fatalf("third create err = %v, want ErrFull", err)
	}
}

func TestTTLEviction(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{MaxJobs: 1, TTL: time.Minute})
	j, err := s.Create("simulate", 1)
	if err != nil {
		t.Fatal(err)
	}
	id := j.ID()
	j.Start(clk.now())
	j.Finish(clk.now(), Done, "", nil)

	// Inside the TTL: still pollable, still occupying the table.
	clk.advance(59 * time.Second)
	if _, ok := s.Get(id); !ok {
		t.Fatal("finished job evicted before TTL")
	}
	if _, err := s.Create("blocked", 1); !errors.Is(err, ErrFull) {
		t.Fatalf("create before TTL err = %v, want ErrFull", err)
	}

	// Past the TTL: Get is an honest miss, and the slot is free again.
	clk.advance(2 * time.Second)
	if _, ok := s.Get(id); ok {
		t.Fatal("expired job still pollable")
	}
	if s.Evicted() != 1 {
		t.Errorf("evicted = %d, want 1", s.Evicted())
	}
	if _, err := s.Create("fits", 1); err != nil {
		t.Fatalf("create after eviction: %v", err)
	}
}

func TestRunningJobNeverEvicted(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{TTL: time.Minute})
	j, _ := s.Create("sweep", 1)
	j.Start(clk.now())
	clk.advance(24 * time.Hour)
	if _, ok := s.Get(j.ID()); !ok {
		t.Fatal("running job evicted by TTL")
	}
}

func TestCancelQueuedWithoutRunner(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{})
	j, _ := s.Create("sweep", 1)
	if !j.Cancel(clk.now(), "client gave up") {
		t.Fatal("cancel of a queued job refused")
	}
	st := j.Snapshot()
	if st.State != Canceled || st.Error != "client gave up" {
		t.Errorf("snapshot %+v", st)
	}
	if s.CanceledCount() != 1 {
		t.Errorf("canceled count = %d, want 1", s.CanceledCount())
	}
	// The stream must already be complete.
	lines, terminal := j.EventsSince(0)
	if !terminal {
		t.Fatal("canceled job stream not terminal")
	}
	var last struct {
		Type  string `json:"type"`
		State State  `json:"state"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "done" || last.State != Canceled {
		t.Errorf("final event %+v", last)
	}
}

func TestCancelFiresAttachedContext(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{})
	j, _ := s.Create("sweep", 1)
	ctx, cancel := context.WithCancel(context.Background())
	j.SetCancel(cancel)
	j.Start(clk.now())
	if !j.Cancel(clk.now(), "stop") {
		t.Fatal("cancel refused")
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("attached context not canceled")
	}
	// The runner observes ctx and finishes the job; until then the
	// state is still Running (cooperative cancellation).
	j.Finish(clk.now(), Canceled, context.Canceled.Error(), nil)
	if st := j.Snapshot(); st.State != Canceled {
		t.Errorf("state %s", st.State)
	}
}

func TestSetCancelAfterCancelFiresImmediately(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{})
	j, _ := s.Create("sweep", 1)
	j.Cancel(clk.now(), "beat the runner") // DELETE raced ahead of submission
	ctx, cancel := context.WithCancel(context.Background())
	j.SetCancel(cancel)
	select {
	case <-ctx.Done():
	default:
		t.Fatal("late-attached cancel did not fire for an already-canceled job")
	}
	if j.Start(clk.now()) {
		t.Fatal("Start succeeded on a canceled job")
	}
}

func TestEventsCursorAndNotify(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{})
	j, _ := s.Create("sweep", 2)
	ch := j.Subscribe()
	defer j.Unsubscribe(ch)

	lines, terminal := j.EventsSince(0)
	if len(lines) != 1 || terminal { // the queued status event
		t.Fatalf("initial history %d lines terminal=%v", len(lines), terminal)
	}
	cursor := len(lines)

	j.Publish(map[string]any{"type": "cell", "index": 0})
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no notify after publish")
	}
	lines, _ = j.EventsSince(cursor)
	if len(lines) != 1 {
		t.Fatalf("cursor read got %d lines, want 1", len(lines))
	}
	cursor += len(lines)

	// Coalescing: multiple publishes, one pending signal, all lines
	// visible from the cursor.
	j.Publish(map[string]any{"type": "cell", "index": 1})
	j.Start(clk.now())
	j.Finish(clk.now(), Done, "", nil)
	lines, terminal = j.EventsSince(cursor)
	if !terminal {
		t.Fatal("terminal flag not set after Finish")
	}
	if len(lines) != 3 { // cell + running status + done
		t.Fatalf("tail read got %d lines, want 3", len(lines))
	}
}

// TestEventHistoryTruncation: past maxEvents the history stops
// growing (single truncation marker), but the final done event always
// lands so streams still terminate correctly.
func TestEventHistoryTruncation(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{maxEvents: 8})
	j, _ := s.Create("sweep", 100)
	j.Start(clk.now())
	for i := 0; i < 50; i++ {
		j.Publish(map[string]any{"type": "cell", "index": i})
	}
	j.Finish(clk.now(), Done, "", nil)
	lines, terminal := j.EventsSince(0)
	if !terminal {
		t.Fatal("not terminal")
	}
	if len(lines) != 8+1+1 { // capacity + truncation marker + done
		t.Fatalf("history %d lines, want 10", len(lines))
	}
	var trunc, done int
	for _, b := range lines {
		var e struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		switch e.Type {
		case "truncated":
			trunc++
		case "done":
			done++
		}
	}
	if trunc != 1 || done != 1 {
		t.Errorf("truncated=%d done=%d, want 1/1", trunc, done)
	}
	var last struct {
		Type string `json:"type"`
	}
	json.Unmarshal(lines[len(lines)-1], &last)
	if last.Type != "done" {
		t.Errorf("final line type %q, want done", last.Type)
	}
}

func TestActiveCount(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{})
	a, _ := s.Create("x", 1)
	b, _ := s.Create("y", 1)
	if s.Active() != 2 {
		t.Fatalf("active = %d, want 2", s.Active())
	}
	a.Start(clk.now())
	a.Finish(clk.now(), Done, "", nil)
	if s.Active() != 1 {
		t.Fatalf("active = %d, want 1", s.Active())
	}
	b.Cancel(clk.now(), "")
	if s.Active() != 0 {
		t.Fatalf("active = %d, want 0", s.Active())
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2 (terminal jobs stay until TTL)", s.Len())
	}
}

func TestIDsUnique(t *testing.T) {
	clk := newFakeClock()
	s := newStore(clk, Options{MaxJobs: 1000})
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		j, err := s.Create("x", 1)
		if err != nil {
			t.Fatal(err)
		}
		if seen[j.ID()] {
			t.Fatalf("duplicate ID %s", j.ID())
		}
		seen[j.ID()] = true
	}
}
