package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zbp/internal/rcache"
	"zbp/internal/server"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// serve-cell: independent callers send POST /v1/cell to one
// in-process zbpd over real loopback connections, on a seeded Poisson
// schedule (open loop). Keys are Zipf-distributed over a bounded cell
// universe, so most requests hit the result cache and the rest queue,
// simulate, put and evict.

var (
	serveConfigs   = []string{"z15", "z14", "z13", "zEC12"}
	serveWorkloads = []string{"loops", "micro", "interp", "lspr"}
)

const (
	serveSeeds  = 64    // seeds per (config, workload): 1024 cells in all
	serveBudget = 3_000 // instructions per cell
	// serveCacheBytes holds about a quarter of the cell universe, so
	// the LRU keeps evicting.
	serveCacheBytes = 2 << 20
	// serveRate is the nominal offered load, in requests per second;
	// the latencies are measured at this rate.
	serveRate = 150.0
	// latencyLimit is the p99 a ladder rung must meet.
	latencyLimit = 50 * time.Millisecond
	// maxLateP99 bounds how late the generator itself may send: a
	// generator later than the limit cannot tell whether the limit is
	// met, so such a run is invalid rather than reported.
	maxLateP99 = latencyLimit
	// The rate ladder is fixed: rung k offers serveRate x ladderStep^k.
	// The climb starts near the capacity the nominal phase implies and
	// runs at most ladderProbes rungs; max_rate_rps is the rate at which
	// p99 reaches latencyLimit, interpolated (in log p99) between the
	// highest rung that met it with no failed or refused request and
	// the next rung up, which missed it.
	ladderStep   = 1.1
	ladderProbes = 5
	// probeWindows splits each probe for windowedQuantile.
	probeWindows = 3
)

var serveLayerMetrics = []metricDef{
	{"workload.mat_mb", "MB"},
	{"http.rtt_ms.p50", "ms"},
	{"http.rtt_ms.p99", "ms"},
	{"http.hop_ms.p50", "ms"},
	{"server.handler_ms.hit.p50", "ms"},
	{"server.handler_ms.miss.p50", "ms"},
	{"server.handler_ms.miss.p99", "ms"},
	{"rcache.get_ns", "ns"},
	{"rcache.put_ns", "ns"},
	{"rcache.hit_ratio", "ratio"},
	{"rcache.evictions_per_s", "1/s"},
	{"server.rejected", "count"},
	{"server.audits_per_s", "1/s"},
	{"server.audit_dropped", "count"},
	{"loadgen.late_ms.p99", "ms"},
	{"loadgen.wait_share", "ratio"},
	{"http.share", "ratio"},
	{"server.share", "ratio"},
	{"rcache.share", "ratio"},
}

// serveKey is one cell of the universe.
type serveKey struct {
	config, workload string
	seed             uint64
}

func (k serveKey) spec(budget int) rcache.CellSpec {
	return rcache.CellSpec{Config: k.config, Workload: k.workload, Seed: k.seed, Instructions: budget}
}

// cellUniverse lists every key; the seed pool is derived from the run
// seed so each run serves different traces.
func cellUniverse(seed uint64, seeds int) []serveKey {
	var ks []serveKey
	for _, c := range serveConfigs {
		for _, w := range serveWorkloads {
			for i := 0; i < seeds; i++ {
				ks = append(ks, serveKey{c, w, seed*1000 + uint64(i)})
			}
		}
	}
	return ks
}

// arrival is one scheduled request: when it is due (offset from the
// phase start) and which key it asks for.
type arrival struct {
	due time.Duration
	key int
}

// poissonSchedule draws Poisson arrivals at rate for d, with keys
// Zipf-distributed over n keys under a seeded permutation.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, n int) []arrival {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	perm := rng.Perm(n)
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, arrival{t, perm[zipf.Uint64()]})
	}
}

// serveRefs computes the library reference stats bytes of every key,
// compacted as they arrive inside a CellResponse.
func serveRefs(ctx context.Context, keys []serveKey, budget int) ([][]byte, error) {
	mz := workload.NewMaterializer()
	refs := make([][]byte, len(keys))
	for i, k := range keys {
		cfg, err := simConfig(k.config)
		if err != nil {
			return nil, err
		}
		p, err := mz.Get(k.workload, k.seed, budget)
		if err != nil {
			return nil, err
		}
		res, err := simRunPacked(ctx, cfg, p)
		if err != nil {
			return nil, err
		}
		b, err := res.StatsJSON()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, b); err != nil {
			return nil, err
		}
		refs[i] = buf.Bytes()
	}
	return refs, nil
}

// zbpd is one in-process zbpd behind a loopback listener.
type zbpd struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startZbpd boots a server with the cmd/zbpd defaults except for the
// fields cfg sets, behind handler middleware wrap (nil for none).
func startZbpd(cfg server.Config, wrap func(http.Handler) http.Handler) (*zbpd, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	z, err := listen(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	z.srv = srv
	return z, nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*zbpd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	z := &zbpd{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(z.done)
		_ = z.hs.Serve(ln) // returns ErrServerClosed once stop shuts it down
	}()
	return z, nil
}

// stop shuts the listener and handlers down, then the server's
// workers, and waits for the serving goroutine.
func (z *zbpd) stop() {
	if z.srv != nil {
		z.srv.Drain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := z.hs.Shutdown(ctx); err != nil {
		z.hs.Close()
	}
	<-z.done
	if z.srv != nil {
		z.srv.Close()
	}
}

// zbpdDefaults mirrors the cmd/zbpd flag defaults.
func zbpdDefaults() server.Config {
	return server.Config{
		Workers:             runtime.GOMAXPROCS(0),
		QueueDepth:          16,
		MaxInstructions:     20_000_000,
		DefaultInstructions: 1_000_000,
		MaxSweepCells:       64,
		DefaultTimeout:      60 * time.Second,
		MaxTimeout:          5 * time.Minute,
		MaxJobs:             64,
		JobTTL:              15 * time.Minute,
		CacheMemBytes:       256 << 20,
		CacheDiskBytes:      1 << 30,
		AuditEvery:          16,
	}
}

// newClient allows at most conns keep-alive connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// outcome is one request as the load generator saw it.
type outcome struct {
	due, send, done time.Time
	late            time.Duration // send time past max(due, caller free)
	ok              bool          // 200 with the reference stats bytes
	cached          bool
	why             string
}

// postCell sends one /v1/cell request and checks its payload.
func postCell(c *http.Client, url string, body []byte, reqID string, ref []byte) (cached bool, why string) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/cell", bytes.NewReader(body))
	if err != nil {
		return false, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqIDHeader, reqID)
	resp, err := c.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return false, "status " + resp.Status
	}
	var cr server.CellResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return false, "undecodable response: " + err.Error()
	}
	var got bytes.Buffer
	if err := json.Compact(&got, cr.Stats); err != nil || !bytes.Equal(got.Bytes(), ref) {
		return cr.Cached, "stats bytes differ from the library reference"
	}
	return cr.Cached, ""
}

const reqIDHeader = "X-Bench-Request"

// openLoop replays sched from start with at most callers requests in
// flight; each caller takes the next due request, waits for its due
// time if early, and sends it. Latency counts from the due time, so a
// request that waited for a free caller is charged the wait.
func openLoop(ctx context.Context, c *http.Client, url string, sched []arrival, bodies [][]byte, refs [][]byte, callers int, start time.Time) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(a.due)
				free := time.Now()
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				o := &out[i]
				o.due, o.send = due, time.Now()
				o.late = o.send.Sub(maxTime(due, free))
				o.cached, o.why = postCell(c, url, bodies[a.key], strconv.Itoa(i), refs[a.key])
				o.done = time.Now()
				o.ok = o.why == ""
			}
		}()
	}
	wg.Wait()
	return out
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// ops converts outcomes to timed operations, due time first: latency
// counts from when a request was due, and a failed or refused request
// misses any limit.
func ops(out []outcome) []timedOp {
	t := make([]timedOp, len(out))
	for i, o := range out {
		t[i] = timedOp{o.due, math.Inf(1)}
		if o.ok {
			t[i].lat = ms(o.done.Sub(o.due))
		}
	}
	return t
}

// lateness returns how late the generator sent each request, in ms.
func lateness(out []outcome) []float64 {
	late := make([]float64, len(out))
	for i, o := range out {
		late[i] = ms(o.late)
	}
	return late
}

// serveSetup is one booted, warmed zbpd.
type serveSetup struct {
	z      *zbpd
	client *http.Client
}

func runServeCell(ctx context.Context, o options) (*report, error) {
	budget, seeds, phase := serveBudget, serveSeeds, o.dur
	if o.tiny {
		budget, seeds = 1_000, 4
	}
	nominal, probe := phase*3/5, phase*2/5/ladderProbes
	if o.trace {
		nominal = phase
	}
	keys := cellUniverse(o.seed, seeds)
	rng := rand.New(rand.NewSource(int64(o.seed)))
	sched := poissonSchedule(rng, serveRate, nominal, len(keys))
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		b, err := json.Marshal(server.CellRequest{SimulateRequest: server.SimulateRequest{
			Config: k.config, Workload: k.workload, Seed: &k.seed, Instructions: budget,
		}})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	refs, err := serveRefs(ctx, keys, budget)
	if err != nil {
		return nil, err
	}

	callers := runtime.GOMAXPROCS(0)
	var mw *serveMiddleware
	if o.trace {
		mw = &serveMiddleware{spans: map[string]handlerSpan{}}
	}
	cfg := zbpdDefaults()
	cfg.CacheMemBytes = serveCacheBytes
	setup, release, setupS, err := medianSetup(3, func() (*serveSetup, func(), error) {
		var wrap func(http.Handler) http.Handler
		if mw != nil {
			wrap = mw.wrap
		}
		z, err := startZbpd(cfg, wrap)
		if err != nil {
			return nil, nil, err
		}
		s := &serveSetup{z: z, client: newClient(callers)}
		release := func() { s.client.CloseIdleConnections(); z.stop() }
		// Warm: materialize every trace once through the z15 cells.
		for i, k := range keys {
			if k.config != serveConfigs[0] {
				continue
			}
			if _, why := postCell(s.client, z.url, bodies[i], "warm", refs[i]); why != "" {
				release()
				return nil, nil, fmt.Errorf("warm-up %v: %s", k, why)
			}
		}
		return s, release, nil
	})
	defer release()
	if err != nil {
		return nil, err
	}
	if mw != nil {
		mw.reset()
	}
	rep := newReport(o.trace)
	runtime.GC()

	before, err := scrape(setup.client, setup.z.url+"/metrics")
	if err != nil {
		return nil, err
	}
	// run replays one schedule, checks every response and counts the
	// instructions simulated for misses.
	var instr float64
	run := func(s []arrival, start time.Time) []outcome {
		out := openLoop(ctx, setup.client, setup.z.url, s, bodies, refs, callers, start)
		for _, oc := range out {
			rep.check(oc.ok, oc.why)
			if oc.ok && !oc.cached {
				instr += float64(budget)
			}
		}
		return out
	}
	mem := startMemSampler()
	cpu0 := cpuSeconds()
	start := time.Now().Add(10 * time.Millisecond)
	out := run(sched, start)
	memMB := mem.finish(start)
	elapsed := time.Since(start)
	after, err := scrape(setup.client, setup.z.url+"/metrics")
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	late := lateness(out)
	if lp := quantile(late, 0.99); lp > ms(maxLateP99) {
		return nil, fmt.Errorf("invalid run: load generator p99 lateness %.2f ms exceeds %v", lp, maxLateP99)
	}
	if o.trace {
		return rep, serveTraced(rep, out, late, mw, before, after, elapsed, keys, refs, sched, budget)
	}

	nomOps := ops(out)
	maxRate, err := climbLadder(ctx, o.seed, nomOps, probe, run, callers, len(keys))
	// CPU covers the nominal phase and the ladder, which serves several
	// times more requests, so the miss count the figure rests on is
	// several times larger.
	cpu := cpuSeconds() - cpu0
	if err != nil {
		return nil, err
	}

	rep.set("setup_s", setupS)
	rep.set("mem_peak_mb", memMB)
	rep.set("sim_minstr_per_s", instr/cpu/1e6)
	// Arrivals are Poisson, so a window's count is noisy; the whole
	// phase's count is not.
	rep.set("cells_per_s", float64(len(out))/elapsed.Seconds())
	rep.set("lat_p50_ms", windowedQuantile(nomOps, start, nominal, timeWindows, 0.50))
	rep.set("lat_p99_ms", windowedQuantile(nomOps, start, nominal, timeWindows, 0.99))
	rep.set("max_rate_rps", maxRate)
	return rep, nil
}

// climbLadder runs the rate ladder with run and returns max_rate_rps.
// The first rung is the highest at or below 90% of the capacity the
// nominal phase implies (callers over the mean service time); from
// there it climbs while rungs meet the limit and descends while they
// miss it, until it has a passing rung next to a missing one.
func climbLadder(ctx context.Context, seed uint64, nominal []timedOp, probe time.Duration,
	run func([]arrival, time.Time) []outcome, callers, keys int) (float64, error) {
	var mean float64
	for _, o := range nominal {
		mean += o.lat / float64(len(nominal))
	}
	rung := func(k int) float64 { return serveRate * math.Pow(ladderStep, float64(k)) }
	k := max(int(math.Log(0.9*float64(callers)*1000/mean/serveRate)/math.Log(ladderStep)), 1)
	type result struct{ rate, p99 float64 }
	results := map[int]result{}
	for p := 0; p < ladderProbes && ctx.Err() == nil; p++ {
		s := poissonSchedule(rand.New(rand.NewSource(int64(seed)*1000+int64(k))), rung(k), probe, keys)
		start := time.Now().Add(10 * time.Millisecond)
		ro := run(s, start)
		if lp := quantile(lateness(ro), 0.99); lp > ms(maxLateP99) {
			return 0, fmt.Errorf("invalid run: load generator p99 lateness %.2f ms at %.0f req/s exceeds %v", lp, rung(k), maxLateP99)
		}
		r := result{float64(len(ro)) / probe.Seconds(), windowedQuantile(ops(ro), start, probe, probeWindows, 0.99)}
		results[k] = r
		fmt.Fprintf(os.Stderr, "zbpbench: ladder rung %d (%.0f req/s offered, %.0f served): p99 %.2f ms\n", k, rung(k), r.rate, r.p99)
		if r.p99 <= ms(latencyLimit) {
			if _, ok := results[k+1]; ok {
				break
			}
			k++
		} else {
			if _, ok := results[k-1]; ok || k == 0 {
				break
			}
			k--
		}
	}
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	// The highest passing rung and the rung above it.
	best := -1
	for i, r := range results {
		if r.p99 <= ms(latencyLimit) && i > best {
			best = i
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no ladder rung from %.0f req/s met the %v p99 limit", rung(k), latencyLimit)
	}
	pass, fail := results[best], results[best+1]
	if fail.rate == 0 || math.IsInf(fail.p99, 1) {
		return pass.rate, nil
	}
	f := (math.Log(ms(latencyLimit)) - math.Log(pass.p99)) / (math.Log(fail.p99) - math.Log(pass.p99))
	return pass.rate + (fail.rate-pass.rate)*f, nil
}

// simRunPacked is the library reference run of one cell.
func simRunPacked(ctx context.Context, cfg sim.Config, p *trace.Packed) (sim.Result, error) {
	cur := p.Cursor()
	return sim.RunWorkloadCtx(ctx, cfg, &cur, p.Len())
}

// --- traced run -----------------------------------------------------------

// handlerSpan is the server-side time of one request.
type handlerSpan struct {
	start, end time.Time
	cached     bool
}

// serveMiddleware times every request through the wrapped handler and
// reads the response's cached flag.
type serveMiddleware struct {
	mu    sync.Mutex
	spans map[string]handlerSpan
}

func (m *serveMiddleware) reset() {
	m.mu.Lock()
	m.spans = map[string]handlerSpan{}
	m.mu.Unlock()
}

func (m *serveMiddleware) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqIDHeader)
		if id == "" || r.URL.Path != "/v1/cell" {
			h.ServeHTTP(w, r)
			return
		}
		rec := &prefixRecorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		end := time.Now()
		m.mu.Lock()
		m.spans[id] = handlerSpan{start, end, bytes.Contains(rec.prefix, []byte(`"cached": true`))}
		m.mu.Unlock()
	})
}

// prefixRecorder keeps the first bytes of a response body.
type prefixRecorder struct {
	http.ResponseWriter
	prefix []byte
}

func (p *prefixRecorder) Write(b []byte) (int, error) {
	if n := 64 - len(p.prefix); n > 0 {
		p.prefix = append(p.prefix, b[:min(n, len(b))]...)
	}
	return p.ResponseWriter.Write(b)
}

func serveTraced(rep *report, out []outcome, late []float64, mw *serveMiddleware, before, after map[string]float64,
	elapsed time.Duration, keys []serveKey, refs [][]byte, sched []arrival, budget int) error {
	var rtt, hop, hit, miss []float64
	var hits, misses float64
	for i, oc := range out {
		if oc.send.IsZero() {
			continue
		}
		id := strconv.Itoa(i)
		mw.mu.Lock()
		hs, ok := mw.spans[id]
		mw.mu.Unlock()
		root := rep.spans.add("request", id, 0, oc.due, oc.done)
		rep.spans.add("loadgen.wait", id, root, oc.due, oc.send)
		r := rep.spans.add("http.rtt", id, root, oc.send, oc.done)
		rtt = append(rtt, ms(oc.done.Sub(oc.send)))
		if !ok {
			continue
		}
		rep.spans.add("server.handler", id, r, hs.start, hs.end)
		hd := ms(hs.end.Sub(hs.start))
		hop = append(hop, ms(oc.done.Sub(oc.send))-hd)
		if hs.cached {
			hit = append(hit, hd)
			hits++
		} else {
			miss = append(miss, hd)
			misses++
		}
	}
	getNs, putNs, err := rcacheNs(keys, refs, sched, budget)
	if err != nil {
		return err
	}

	self, rootTotal := rep.spans.selfTimes()
	share := func(name string) float64 { return float64(self[name]) / float64(rootTotal) }
	rcacheShare := (hits*getNs + misses*(getNs+putNs)) / float64(rootTotal)
	rep.set("loadgen.wait_share", share("loadgen.wait")+share("request"))
	rep.set("http.share", share("http.rtt"))
	rep.set("server.share", share("server.handler")-rcacheShare)
	rep.set("rcache.share", rcacheShare)

	rep.set("workload.mat_mb", after["zbpd_mat_bytes"]/(1<<20))
	rep.set("http.rtt_ms.p50", quantile(rtt, 0.50))
	rep.set("http.rtt_ms.p99", quantile(rtt, 0.99))
	rep.set("http.hop_ms.p50", quantile(hop, 0.50))
	rep.set("server.handler_ms.hit.p50", quantile(hit, 0.50))
	rep.set("server.handler_ms.miss.p50", quantile(miss, 0.50))
	rep.set("server.handler_ms.miss.p99", quantile(miss, 0.99))
	rep.set("rcache.get_ns", getNs)
	rep.set("rcache.put_ns", putNs)
	h, m := delta(before, after, "zbpd_cache_hits_total"), delta(before, after, "zbpd_cache_misses_total")
	rep.set("rcache.hit_ratio", ratio(h, h+m))
	rep.set("rcache.evictions_per_s", delta(before, after, "zbpd_cache_evictions_total")/elapsed.Seconds())
	rep.set("server.rejected", delta(before, after, "zbpd_rejected_total"))
	rep.set("server.audits_per_s", delta(before, after, "zbpd_cache_audits_total")/elapsed.Seconds())
	rep.set("server.audit_dropped", delta(before, after, "zbpd_cache_audit_dropped_total"))
	rep.set("loadgen.late_ms.p99", quantile(late, 0.99))
	return nil
}

// rcacheNs replays the schedule's key sequence against a fresh cache of
// the served size: a Get per request and a Put of the reference payload
// per miss, each call timed.
func rcacheNs(keys []serveKey, refs [][]byte, sched []arrival, budget int) (getNs, putNs float64, err error) {
	c, err := rcache.New(rcache.Config{MaxMemBytes: serveCacheBytes})
	if err != nil {
		return 0, 0, err
	}
	rk := make([]rcache.Key, len(keys))
	for i, k := range keys {
		rk[i] = rcache.NewKey(k.spec(budget))
	}
	ovh := clockOverhead()
	var g, p, ng, np int64
	for pass := 0; pass < 3; pass++ {
		for _, a := range sched {
			t0 := nanotime()
			_, ok := c.Get(rk[a.key])
			g += nanotime() - t0 - ovh
			ng++
			if !ok {
				t0 = nanotime()
				c.Put(rk[a.key], refs[a.key])
				p += nanotime() - t0 - ovh
				np++
			}
		}
	}
	return ratio(float64(g), float64(ng)), ratio(float64(p), float64(np)), nil
}
