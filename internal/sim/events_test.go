package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestJSONLSinkOutput(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	events := []Event{
		{Cycle: 100, Kind: EvPredict, Thread: 0, Addr: 0x1000, Target: 0x2000, Taken: true},
		{Cycle: 101, Kind: EvPredict, Thread: 1, Addr: 0x1004, Target: 0xdead, Taken: false},
		{Cycle: 130, Kind: EvResolve, Thread: 0, Addr: 0x1000, Target: 0x2000, Taken: true, Dynamic: true, Correct: true},
		{Cycle: 131, Kind: EvRestart, Thread: 0, Addr: 0x2000, Penalty: 26},
		{Cycle: 140, Kind: EvFill, Thread: -1, Addr: 0x3fc0},
	}
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Count() != int64(len(events)) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(events))
	}

	want := []string{
		`{"cycle":100,"kind":"predict","thread":0,"addr":"0x1000","target":"0x2000","taken":true}`,
		`{"cycle":101,"kind":"predict","thread":1,"addr":"0x1004","taken":false}`,
		`{"cycle":130,"kind":"resolve","thread":0,"addr":"0x1000","target":"0x2000","taken":true,"dynamic":true,"correct":true}`,
		`{"cycle":131,"kind":"restart","thread":0,"addr":"0x2000","penalty":26}`,
		`{"cycle":140,"kind":"fill","addr":"0x3fc0"}`,
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("wrote %d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, line := range lines {
		if line != want[i] {
			t.Errorf("line %d:\ngot  %s\nwant %s", i, line, want[i])
		}
		// Every line must also be parseable JSON for downstream tools.
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %d is not valid JSON: %v", i, err)
		}
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after -= len(p)
	return len(p), nil
}

func TestJSONLSinkStickyError(t *testing.T) {
	s := NewJSONLSink(&failWriter{after: 16})
	// Enough events to overflow the bufio buffer and surface the error.
	for i := 0; i < 5000; i++ {
		s.Emit(Event{Cycle: int64(i), Kind: EvRestart, Addr: 0x1000, Penalty: 26})
	}
	if s.Err() == nil {
		t.Fatal("expected sticky write error")
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush must report the sticky error")
	}
	n := s.Count()
	s.Emit(Event{Cycle: 1, Kind: EvPredict})
	if s.Count() != n {
		t.Fatal("Emit after error must be a no-op")
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EvPredict: "predict", EvResolve: "resolve", EvRestart: "restart", EvFill: "fill",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if got := EventKind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range kind string = %q", got)
	}
}
