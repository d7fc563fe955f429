package sim

import (
	"bufio"
	"fmt"
	"io"

	"zbp/internal/core"
	"zbp/internal/trace"
	"zbp/internal/zarch"
)

// EventKind classifies one cycle-stamped simulation event.
type EventKind uint8

// Event kinds, in pipeline order: a prediction leaves the BPL, a
// branch resolves at completion, a restart redirects the front end, an
// I-cache line fill completes.
const (
	EvPredict EventKind = iota
	EvResolve
	EvRestart
	EvFill

	numEventKinds
)

var eventKindNames = [numEventKinds]string{"predict", "resolve", "restart", "fill"}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one observed simulation event. Field meaning varies by
// kind:
//
//   - EvPredict: Addr/Target/Taken are the predicted branch, Thread
//     the predicting thread, Cycle the b5 present cycle.
//   - EvResolve: Addr/Target/Taken are the architectural outcome,
//     Dynamic whether a BPL prediction covered the branch, Correct
//     whether prediction (or static guess) was fully right.
//   - EvRestart: Addr is the redirect address, Penalty the charged
//     stall cycles.
//   - EvFill: Addr is the filled line, Thread is -1 (fills are not
//     thread-attributed).
type Event struct {
	Cycle   int64
	Kind    EventKind
	Thread  int
	Addr    zarch.Addr
	Target  zarch.Addr
	Taken   bool
	Dynamic bool
	Correct bool
	Penalty int64
}

// EventSink consumes the cycle-level event log. Emit is called from
// the simulation loop, in deterministic order; implementations must
// not retain the Event beyond the call unless they copy it (Event is a
// value, so plain assignment copies).
type EventSink interface {
	Emit(Event)
}

// RingSink retains the most recent capacity events in a ring: the
// "flight recorder" used to inspect the window leading up to a
// condition of interest without paying for full-run logging.
type RingSink struct {
	buf   []Event
	next  int
	total int64
}

// NewRingSink returns a ring retaining the last capacity events.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		panic("sim: RingSink capacity must be positive")
	}
	return &RingSink{buf: make([]Event, 0, capacity)}
}

// Emit implements EventSink. It never allocates once the ring is full.
func (s *RingSink) Emit(e Event) {
	s.total++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
		return
	}
	s.buf[s.next] = e
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
	}
}

// Total returns the number of events observed (including overwritten).
func (s *RingSink) Total() int64 { return s.total }

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// JSONLSink streams every event as one JSON object per line. The
// encoding is hand-rolled with a fixed field order (and omits fields
// that are zero for the kind), so logs are deterministic and cheap:
// no reflection, one buffered write per event.
type JSONLSink struct {
	w   *bufio.Writer
	err error
	buf []byte
	n   int64
}

// NewJSONLSink returns a sink writing JSON lines to w. Call Flush
// before reading the underlying writer's contents.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w), buf: make([]byte, 0, 160)}
}

// Emit implements EventSink. The first write error sticks (see Err).
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	b = append(b, `{"cycle":`...)
	b = appendInt(b, e.Cycle)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	if e.Kind != EvFill {
		b = append(b, `,"thread":`...)
		b = appendInt(b, int64(e.Thread))
	}
	b = append(b, `,"addr":"`...)
	b = appendHex(b, uint64(e.Addr))
	b = append(b, '"')
	switch e.Kind {
	case EvPredict, EvResolve:
		if e.Taken {
			b = append(b, `,"target":"`...)
			b = appendHex(b, uint64(e.Target))
			b = append(b, '"')
		}
		b = append(b, `,"taken":`...)
		b = appendBool(b, e.Taken)
		if e.Kind == EvResolve {
			b = append(b, `,"dynamic":`...)
			b = appendBool(b, e.Dynamic)
			b = append(b, `,"correct":`...)
			b = appendBool(b, e.Correct)
		}
	case EvRestart:
		b = append(b, `,"penalty":`...)
		b = appendInt(b, e.Penalty)
	}
	b = append(b, '}', '\n')
	s.buf = b
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
	s.n++
}

// Count returns the number of events written.
func (s *JSONLSink) Count() int64 { return s.n }

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// Flush drains buffered lines to the underlying writer.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

func appendHex(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	b = append(b, '0', 'x')
	var tmp [16]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = digits[v&15]
		v >>= 4
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// SetEventSink wires sink into every event source of the simulation:
// BPL predictions, completion-time resolves, front-end restarts and
// I-cache fills. Call it before Run. A nil sink is a no-op; when no
// sink is set the hot path pays nothing beyond one nil hook check per
// event site (verified by the capacity-sweep allocation benchmark).
// The hooks fire beneath RunCtx's one cycle loop, so results stay
// byte-identical with and without a sink.
func (s *Sim) SetEventSink(sink EventSink) {
	if sink == nil {
		return
	}
	c := s.core
	c.SetPredictHook(func(p core.Prediction) {
		sink.Emit(Event{Cycle: p.PresentedAt, Kind: EvPredict, Thread: p.Thread,
			Addr: p.Addr, Target: p.Target, Taken: p.Taken})
	})
	for _, t := range s.threads {
		id := t.ID()
		t.SetResolveHook(func(now int64, r trace.Rec, dynamic, correct bool) {
			sink.Emit(Event{Cycle: now, Kind: EvResolve, Thread: id,
				Addr: r.Addr, Target: r.Target, Taken: r.Taken(),
				Dynamic: dynamic, Correct: correct})
		})
		t.SetRestartHook(func(now int64, addr zarch.Addr, penalty int64) {
			sink.Emit(Event{Cycle: now, Kind: EvRestart, Thread: id,
				Addr: addr, Penalty: penalty})
		})
	}
	if s.ic != nil {
		s.ic.SetFillHook(func(line zarch.Addr, ready int64) {
			sink.Emit(Event{Cycle: ready, Kind: EvFill, Thread: -1, Addr: line})
		})
	}
}
