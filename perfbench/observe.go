package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run. Spans of one
// operation share Req; Parent links a span to the one that caused it.
// N > 1 marks an aggregate: N sampled calls folded into one span whose
// length is their estimated total (used for per-cycle simulator layers,
// where one span per call would cost more than the call).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the in-memory log; later spans are counted, not kept.
const maxSpans = 1 << 20

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu      sync.Mutex
	base    time.Time
	spans   []span
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// at converts a wall instant to the log's time axis.
func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.base)) }

// add records a span and returns its id (0 when the log is full).
func (l *spanLog) add(name, req string, parent int64, start, end time.Time) int64 {
	return l.addNs(name, req, parent, l.at(start), l.at(end), 0)
}

func (l *spanLog) addNs(name, req string, parent, start, end, n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end, N: n})
	return id
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// selfTimes returns each span name's total self time: a span's length
// minus the part of it its children cover. Over a set of root spans the
// self times partition the roots' total length, so per-name shares of
// that total sum to 1.
func (l *spanLog) selfTimes() (self map[string]int64, rootTotal int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string]int64{}
	for _, s := range l.spans {
		if s.Parent == 0 {
			rootTotal += s.dur()
		}
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return self, rootTotal
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil && l.dropped > 0 {
		err = enc.Encode(map[string]int64{"dropped_spans": l.dropped})
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// memSampler samples the live heap (the bytes the most recent GC
// found reachable) through the timed phase. Garbage awaiting
// collection is left out: how much of it exists at a sample depends
// on GC timing, not on what the program keeps.
type memSampler struct {
	stop    chan struct{}
	done    chan struct{}
	at      []time.Time
	samples []uint64
}

const heapLive = "/gc/heap/live:bytes"

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		sample := []metrics.Sample{{Name: heapLive}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			m.at = append(m.at, time.Now())
			m.samples = append(m.samples, sample[0].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak in MB: the highest
// over timeWindows windows of [start, now) of the window's mean live
// heap. A single sample is mostly a count of the simulations whose
// tables happened to be live at the last GC; a window's mean is not.
func (m *memSampler) finish(start time.Time) float64 {
	close(m.stop)
	<-m.done
	d := time.Since(start)
	sums := make([]float64, timeWindows)
	counts := make([]float64, timeWindows)
	for i, t := range m.at {
		w := min(max(int(t.Sub(start)*timeWindows/d), 0), timeWindows-1)
		sums[w] += float64(m.samples[i]) / (1 << 20)
		counts[w]++
	}
	var peak float64
	for w := range sums {
		peak = max(peak, ratio(sums[w], counts[w]))
	}
	return peak
}

// scrape fetches a Prometheus text exposition and returns each sample
// by metric name (labels dropped; every zbpd series is unique by name).
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// drain reads and discards the rest of a response body so its
// keep-alive connection can be reused.
func drain(r io.ReadCloser) {
	_, _ = io.Copy(io.Discard, r) // best effort: the connection is only reused if this succeeds
	r.Close()
}

// clockBase anchors nanotime; time.Since on a monotonic instant reads
// the clock once, half the cost of a time.Now pair.
var clockBase = time.Now()

// nanotime is the cheap clock the sampled layer timings use.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// clockOverhead estimates what one interval between two nanotime calls
// measures when nothing runs between them; sampled layer timings
// subtract it from every interval they measure.
func clockOverhead() int64 {
	xs := make([]float64, 0, 4096)
	for i := 0; i < 4096; i++ {
		a := nanotime()
		b := nanotime()
		xs = append(xs, float64(b-a))
	}
	return int64(median(xs))
}
