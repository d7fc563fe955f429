package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"zbp/internal/cluster"
	"zbp/internal/jobs"
	"zbp/internal/rcache"
	"zbp/internal/server"
	"zbp/internal/workload"
)

// fleet-sweep: nproc clients in a closed loop submit no_cache sweep
// jobs to an in-process coordinator over two in-process zbpd backends
// (Workers=1 each), all behind loopback listeners. Each client posts a
// job, follows its event stream to the done line, then fetches the
// result.

var (
	fleetConfigs   = []string{"z15", "z14"}
	fleetWorkloads = []string{"loops", "micro", "interp", "lspr"}
)

const (
	fleetBackends = 2
	// fleetBudget sizes cells so that the closed loop's cell rate stays
	// well under the coordinator's default admission rate of 256
	// cells/s (about 110 cells/s on a 2-vCPU host), leaving room for a
	// faster simulator before admission starts refusing jobs.
	fleetBudget = 24_000 // instructions per cell
	fleetSeeds  = 8      // seeds per client; clients use disjoint seeds
	// fleetCellsPerJob: one config x two workloads x two seeds.
	fleetCellsPerJob = 4
	// fleetJobTTL and fleetMaxJobs size the coordinator's job table for
	// a closed loop that finishes tens of jobs a second; with the
	// cmd/zbpd defaults (15 minutes, 64 jobs) the table fills within
	// seconds and every later submission is refused.
	fleetJobTTL  = 2 * time.Second
	fleetMaxJobs = 1024
)

var fleetLayerMetrics = []metricDef{
	{"jobs.submit_ms.p50", "ms"},
	{"jobs.stream_ms.p50", "ms"},
	{"jobs.result_ms.p50", "ms"},
	{"backend.cell_ms.p50", "ms"},
	{"backend.cell_ms.p90", "ms"},
	{"backend.busy_share", "ratio"},
	{"backend.share", "ratio"},
	{"cluster.dispatches_per_cell", "ratio"},
	{"cluster.fabric_share", "ratio"},
	{"cluster.hedges", "count"},
	{"cluster.retries", "count"},
}

// fleetCell is one cell of a job's grid.
type fleetCell struct {
	config, workload string
	seed             uint64
}

// fleetJob is one job: one config, two workloads, two seeds.
type fleetJob struct {
	req   server.SweepRequest
	cells []fleetCell
}

// jobStream draws client c's jobs from its own seed pool.
func jobStream(rng *rand.Rand, pool []uint64, budget int) func() fleetJob {
	return func() fleetJob {
		cfg := fleetConfigs[rng.Intn(len(fleetConfigs))]
		wi := rng.Perm(len(fleetWorkloads))[:2]
		si := rng.Perm(len(pool))[:2]
		req := server.SweepRequest{
			Configs:      []string{cfg},
			Workloads:    []string{fleetWorkloads[wi[0]], fleetWorkloads[wi[1]]},
			Seeds:        []uint64{pool[si[0]], pool[si[1]]},
			Instructions: budget,
		}
		var cells []fleetCell
		for _, w := range req.Workloads {
			for _, s := range req.Seeds {
				cells = append(cells, fleetCell{cfg, w, s})
			}
		}
		return fleetJob{req, cells}
	}
}

// fleetRefs computes the library reference stats bytes of every cell
// any client can ask for.
func fleetRefs(ctx context.Context, pools [][]uint64, budget int) (map[fleetCell][]byte, error) {
	mz := workload.NewMaterializer()
	refs := map[fleetCell][]byte{}
	for _, pool := range pools {
		for _, s := range pool {
			for _, w := range fleetWorkloads {
				p, err := mz.Get(w, s, budget)
				if err != nil {
					return nil, err
				}
				for _, c := range fleetConfigs {
					cfg, err := simConfig(c)
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
					refs[fleetCell{c, w, s}] = b
				}
			}
		}
	}
	return refs, nil
}

// expectedRows is the single-box result of a job: server.Summarize
// over the reference stats, in the sweep's row order.
func expectedRows(j fleetJob, refs map[fleetCell][]byte, budget int) ([]byte, error) {
	resp := server.SweepResponse{}
	for _, c := range j.cells {
		spec := rcache.CellSpec{Config: c.config, Workload: c.workload, Seed: c.seed, Instructions: budget}
		_, sum, err := server.Summarize(spec, refs[c])
		if err != nil {
			return nil, err
		}
		resp.Cells = append(resp.Cells, server.SweepCell{
			Config: c.config, Workload: c.workload, Seed: c.seed,
			Instructions: sum.Instructions, Cycles: sum.Cycles,
			MPKI: sum.MPKI, IPC: sum.IPC, Accuracy: sum.Accuracy,
		})
	}
	return json.Marshal(resp)
}

// fleet is the booted coordinator and its backends.
type fleet struct {
	backends []*zbpd
	coord    *cluster.Coordinator
	front    *zbpd
	client   *http.Client
}

func (f *fleet) stop() {
	f.client.CloseIdleConnections()
	if f.front != nil {
		f.coord.Drain()
		f.front.stop()
		f.coord.Close()
	}
	for _, b := range f.backends {
		b.stop()
	}
}

// bootFleet starts the backends and the coordinator with the cmd/zbpd
// defaults (Workers=1 on each backend), then warms every backend's
// trace cache with one no_cache cell per (workload, seed).
// A non-nil wrap wraps backend i's handler in wrap(i, handler).
func bootFleet(pools [][]uint64, budget, clients int, wrap func(int, http.Handler) http.Handler) (*fleet, error) {
	f := &fleet{client: newClient(clients)}
	var urls []string
	for i := 0; i < fleetBackends; i++ {
		cfg := zbpdDefaults()
		cfg.Workers = 1
		var w func(http.Handler) http.Handler
		if wrap != nil {
			w = func(h http.Handler) http.Handler { return wrap(i, h) }
		}
		b, err := startZbpd(cfg, w)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, b)
		urls = append(urls, b.url)
	}
	coord, err := cluster.New(cluster.Config{
		Backends:            urls,
		Router:              "rendezvous",
		CellTimeout:         60 * time.Second,
		HedgeDelay:          400 * time.Millisecond,
		InflightPerBackend:  4,
		AdmitCellsPerSec:    256,
		AdmitBurst:          1024,
		MaxInstructions:     20_000_000,
		DefaultInstructions: 1_000_000,
		DefaultTimeout:      60 * time.Second,
		MaxTimeout:          5 * time.Minute,
		MaxJobs:             fleetMaxJobs,
		JobTTL:              fleetJobTTL,
		CacheMemBytes:       256 << 20,
		CacheDiskBytes:      1 << 30,
		AuditEvery:          16,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	if f.front, err = listen(coord.Handler()); err != nil {
		coord.Close()
		f.front = nil
		f.stop()
		return nil, err
	}
	for _, b := range f.backends {
		for _, pool := range pools {
			for _, s := range pool {
				for _, w := range fleetWorkloads {
					seed := s
					body, err := json.Marshal(server.CellRequest{NoCache: true, SimulateRequest: server.SimulateRequest{
						Config: fleetConfigs[0], Workload: w, Seed: &seed, Instructions: budget,
					}})
					if err == nil {
						err = postOK(f.client, b.url+"/v1/cell", body, nil)
					}
					if err != nil {
						f.stop()
						return nil, fmt.Errorf("warm-up: %w", err)
					}
				}
			}
		}
	}
	return f, nil
}

// postOK posts body and decodes a 2xx JSON reply into into (if set).
func postOK(c *http.Client, url string, body []byte, into any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256)) // best effort: only for the error text
		return fmt.Errorf("POST %s: %s %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if into == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// jobTiming is one job as its client saw it.
type jobTiming struct {
	start, submitted, streamed, fetched time.Time
	job                                 fleetJob
}

// runJob submits one job, follows its events to done and fetches and
// checks its rows.
func runJob(c *http.Client, url string, j fleetJob, want []byte) (jobTiming, string) {
	t := jobTiming{start: time.Now(), job: j}
	body, err := json.Marshal(server.JobRequest{Sweep: &j.req, NoCache: true})
	if err != nil {
		return t, err.Error()
	}
	var st jobs.Status
	if err := postOK(c, url+"/v1/jobs", body, &st); err != nil {
		return t, err.Error()
	}
	t.submitted = time.Now()
	resp, err := c.Get(url + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return t, err.Error()
	}
	done := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"type":"done"`)) {
			done = true
			break
		}
	}
	drain(resp.Body)
	t.streamed = time.Now()
	if !done {
		return t, "event stream ended without a done event"
	}
	resp, err = c.Get(url + "/v1/jobs/" + st.ID)
	if err != nil {
		return t, err.Error()
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	drain(resp.Body)
	t.fetched = time.Now()
	if err != nil {
		return t, "undecodable job status: " + err.Error()
	}
	if st.State != jobs.Done {
		return t, fmt.Sprintf("job ended %s: %s", st.State, st.Error)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, st.Result); err != nil || !bytes.Equal(got.Bytes(), want) {
		return t, "job rows differ from the single-box rows"
	}
	return t, ""
}

// cellSpan is one backend /v1/cell request seen by the middleware.
type cellSpan struct {
	backend    int
	cell       fleetCell
	start, end time.Time
}

// cellMiddleware times every /v1/cell request a backend serves.
type cellMiddleware struct {
	mu    sync.Mutex
	spans []cellSpan
}

func (m *cellMiddleware) wrap(backend int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cell" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req server.CellRequest
		_ = json.Unmarshal(body, &req) // a bad body is the handler's to reject
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		cs := cellSpan{backend: backend, cell: fleetCell{req.Config, req.Workload, 0}, start: start, end: end}
		if req.Seed != nil {
			cs.cell.seed = *req.Seed
		}
		m.mu.Lock()
		m.spans = append(m.spans, cs)
		m.mu.Unlock()
	})
}

func runFleetSweep(ctx context.Context, o options) (*report, error) {
	budget, seeds := fleetBudget, fleetSeeds
	if o.tiny {
		budget, seeds = 1_000, 2
	}
	clients := runtime.GOMAXPROCS(0)
	pools := make([][]uint64, clients)
	for c := range pools {
		for i := 0; i < seeds; i++ {
			pools[c] = append(pools[c], o.seed*1000+uint64(c*seeds+i))
		}
	}
	refs, err := fleetRefs(ctx, pools, budget)
	if err != nil {
		return nil, err
	}
	var (
		mw   *cellMiddleware
		wrap func(int, http.Handler) http.Handler
	)
	if o.trace {
		mw = &cellMiddleware{}
		wrap = mw.wrap
	}
	f, release, setupS, err := medianSetup(3, func() (*fleet, func(), error) {
		f, err := bootFleet(pools, budget, clients, wrap)
		if err != nil {
			return nil, nil, err
		}
		return f, f.stop, nil
	})
	defer release()
	if err != nil {
		return nil, err
	}
	if mw != nil {
		mw.mu.Lock()
		mw.spans = nil
		mw.mu.Unlock()
	}
	rep := newReport(o.trace)
	runtime.GC()
	before, err := scrape(f.client, f.front.url+"/metrics")
	if err != nil {
		return nil, err
	}

	mem := startMemSampler()
	cpu0 := cpuSeconds()
	var (
		mu      sync.Mutex
		timings []jobTiming
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(o.dur)
	for c := 0; c < clients; c++ {
		next := jobStream(rand.New(rand.NewSource(int64(o.seed)*31+int64(c))), pools[c], budget)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				j := next()
				want, err := expectedRows(j, refs, budget)
				why := ""
				var t jobTiming
				if err != nil {
					why = err.Error()
				} else {
					t, why = runJob(f.client, f.front.url, j, want)
				}
				mu.Lock()
				rep.check(why == "", why)
				if why == "" {
					timings = append(timings, t)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuSeconds() - cpu0
	memMB := mem.finish(start)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after, err := scrape(f.client, f.front.url+"/metrics")
	if err != nil {
		return nil, err
	}
	if len(timings) == 0 {
		return nil, fmt.Errorf("no job completed: %s", rep.firstFailure)
	}
	var jobOps []timedOp
	cells := 0
	for _, t := range timings {
		jobOps = append(jobOps, timedOp{t.start, ms(t.fetched.Sub(t.start))})
		cells += len(t.job.cells)
	}
	if o.trace {
		return rep, fleetTraced(rep, timings, mw, before, after, wall, cells)
	}
	rep.set("setup_s", setupS)
	rep.set("mem_peak_mb", memMB)
	jobRate := windowedRate(jobOps, start, o.dur, timeWindows)
	rep.set("sim_minstr_per_s", float64(cells*budget)/cpu/1e6)
	rep.set("cells_per_s", jobRate*fleetCellsPerJob)
	rep.set("lat_p50_ms", windowedQuantile(jobOps, start, o.dur, timeWindows, 0.50))
	rep.set("lat_p99_ms", windowedQuantile(jobOps, start, o.dur, timeWindows, 0.99))
	rep.set("max_rate_rps", jobRate)
	return rep, nil
}

func fleetTraced(rep *report, timings []jobTiming, mw *cellMiddleware, before, after map[string]float64, wall time.Duration, cells int) error {
	mw.mu.Lock()
	spans := mw.spans
	mw.mu.Unlock()
	var submit, stream, result, cellMs []float64
	// A backend is busy while it holds at least one cell request.
	perBackend := make([][]span, fleetBackends)
	for _, s := range spans {
		cellMs = append(cellMs, ms(s.end.Sub(s.start)))
		perBackend[s.backend] = append(perBackend[s.backend], span{Start: rep.spans.at(s.start), End: rep.spans.at(s.end)})
	}
	var busy int64
	for _, b := range perBackend {
		busy += covered(span{Start: math.MinInt64, End: math.MaxInt64}, b)
	}
	// Each job's cells are identified by spec (clients use disjoint
	// seeds) and by falling inside the job's span.
	for i, t := range timings {
		submit = append(submit, ms(t.submitted.Sub(t.start)))
		stream = append(stream, ms(t.streamed.Sub(t.submitted)))
		result = append(result, ms(t.fetched.Sub(t.streamed)))
		id := fmt.Sprintf("job%d", i)
		root := rep.spans.add("job", id, 0, t.start, t.fetched)
		mine := map[fleetCell]bool{}
		for _, c := range t.job.cells {
			mine[c] = true
		}
		for _, s := range spans {
			if mine[s.cell] && !s.start.Before(t.start) && !s.end.After(t.fetched) {
				rep.spans.add("backend.cell", id, root, s.start, s.end)
			}
		}
	}
	self, rootTotal := rep.spans.selfTimes()
	rep.set("jobs.submit_ms.p50", quantile(submit, 0.5))
	rep.set("jobs.stream_ms.p50", quantile(stream, 0.5))
	rep.set("jobs.result_ms.p50", quantile(result, 0.5))
	rep.set("backend.cell_ms.p50", quantile(cellMs, 0.5))
	rep.set("backend.cell_ms.p90", quantile(cellMs, 0.9))
	// Cells of one job overlap, so the backend's part of the job spans
	// is their union: what the job's own self time leaves.
	fabric := float64(self["job"]) / float64(rootTotal)
	rep.set("backend.busy_share", float64(busy)/float64(fleetBackends)/float64(wall))
	rep.set("backend.share", 1-fabric)
	rep.set("cluster.fabric_share", fabric)
	rep.set("cluster.dispatches_per_cell", float64(len(spans))/float64(cells))
	rep.set("cluster.hedges", delta(before, after, "zbpd_hedge_launched_total"))
	rep.set("cluster.retries", delta(before, after, "zbpd_coord_retries_total"))
	return nil
}
