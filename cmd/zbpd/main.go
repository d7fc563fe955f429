// Command zbpd is the always-on simulation service: the predictor
// model behind an HTTP/JSON API with bounded-queue backpressure,
// per-request deadlines, async jobs over a content-addressed result
// cache, and graceful shutdown.
//
// Usage:
//
//	zbpd -addr :8347 -workers 4 -queue 16 -cache-dir /var/cache/zbpd
//	zbpd -trace-dir /data/traces   # allow {"workload":"file:prog.zbpt"} requests
//
//	curl -s localhost:8347/v1/simulate -d '{"workload":"lspr","config":"z15","instructions":1000000}'
//	curl -s localhost:8347/v1/sweep -d '{"configs":["z14","z15"],"workloads":["lspr","micro"]}'
//	curl -s localhost:8347/v1/jobs -d '{"sweep":{"workloads":["loops","micro"],"seeds":[1,2]}}'
//	curl -s localhost:8347/v1/jobs/<id>            # poll
//	curl -sN localhost:8347/v1/jobs/<id>/events    # JSONL progress stream
//	curl -s -X DELETE localhost:8347/v1/jobs/<id>  # cancel
//	curl -s localhost:8347/healthz
//	curl -s localhost:8347/metrics
//
// Job results are cached by content address (config + workload + seed
// + budget + schema version); identical resubmissions are served
// without simulating, and a background auditor recomputes sampled
// cache hits through the equivalence harness (-audit-every).
//
// Coordinator mode turns the same binary into a fleet front-end that
// serves the same API by sharding sweep grids across backends:
//
//	zbpd -coordinator -backends http://host1:8347,http://host2:8347 \
//	     -router rendezvous -hedge-delay 400ms
//
// On SIGINT/SIGTERM the listener stops, running jobs and their event
// streams are canceled, in-flight simulations drain (bounded by
// -grace), and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zbp/internal/cluster"
	"zbp/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8347", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 16, "accepted requests waiting beyond the running ones before 429")
		maxN     = flag.Int("max-instructions", 20_000_000, "per-thread instruction cap per request")
		defN     = flag.Int("default-instructions", 1_000_000, "instruction budget when a request omits one")
		maxCells = flag.Int("max-sweep-cells", 64, "sweep grid size cap")
		timeout  = flag.Duration("timeout", 60*time.Second, "default per-request simulation deadline")
		maxTO    = flag.Duration("max-timeout", 5*time.Minute, "upper clamp on request-supplied deadlines")
		grace    = flag.Duration("grace", 30*time.Second, "shutdown drain budget for in-flight work")

		maxJobs    = flag.Int("max-jobs", 64, "async job table capacity (full table answers 429)")
		jobTTL     = flag.Duration("job-ttl", 15*time.Minute, "how long finished jobs stay pollable")
		cacheMem   = flag.Int64("cache-mem-bytes", 256<<20, "in-memory result cache bound")
		cacheDir   = flag.String("cache-dir", "", "directory for the persistent result cache (empty = memory only)")
		cacheDisk  = flag.Int64("cache-disk-bytes", 1<<30, "on-disk result cache bound")
		auditEvery = flag.Int("audit-every", 16, "recompute every Nth cache hit through the equiv auditor (negative disables)")
		traceDir   = flag.String("trace-dir", "", "allow file:/spec: workloads confined to this directory (empty disables)")

		coordinator  = flag.Bool("coordinator", false, "run as a fleet coordinator instead of a simulation backend")
		backends     = flag.String("backends", "", "comma-separated backend base URLs (coordinator mode)")
		backendsFile = flag.String("backends-file", "", "file with one backend URL per line, re-read on change (coordinator mode)")
		router       = flag.String("router", "rendezvous", "cell routing policy: rendezvous, least-loaded, round-robin")
		cellTO       = flag.Duration("cell-timeout", 60*time.Second, "per-attempt deadline for one dispatched cell (coordinator mode)")
		hedgeDelay   = flag.Duration("hedge-delay", 400*time.Millisecond, "straggler threshold before a duplicate dispatch (0 = the 400ms default, negative disables; coordinator mode)")
		maxAttempts  = flag.Int("max-attempts", 0, "dispatch attempts per cell incl. retries and the hedge (0 = max(3, #backends); coordinator mode)")
		perBackend   = flag.Int("inflight-per-backend", 4, "concurrent cells per backend (coordinator mode)")
		admitRate    = flag.Float64("admit-cells-per-sec", 256, "token-bucket admission refill, one token per cell (negative disables; coordinator mode)")
		admitBurst   = flag.Int("admit-burst", 1024, "token-bucket admission capacity (coordinator mode)")
	)
	flag.Parse()

	// Both roles are the same front end; only the executor under it
	// differs.
	var (
		srv  *server.Server
		role = "zbpd"
	)
	if *coordinator {
		role = "zbpd coordinator"
		urls := strings.Split(*backends, ",")
		clean := urls[:0]
		for _, u := range urls {
			if u = strings.TrimSpace(u); u != "" {
				clean = append(clean, u)
			}
		}
		coord, err := cluster.New(cluster.Config{
			Backends:            clean,
			BackendsFile:        *backendsFile,
			Router:              *router,
			CellTimeout:         *cellTO,
			HedgeDelay:          *hedgeDelay,
			MaxAttempts:         *maxAttempts,
			InflightPerBackend:  *perBackend,
			AdmitCellsPerSec:    *admitRate,
			AdmitBurst:          *admitBurst,
			MaxInstructions:     *maxN,
			DefaultInstructions: *defN,
			DefaultTimeout:      *timeout,
			MaxTimeout:          *maxTO,
			MaxJobs:             *maxJobs,
			JobTTL:              *jobTTL,
			CacheMemBytes:       *cacheMem,
			CacheDir:            *cacheDir,
			CacheDiskBytes:      *cacheDisk,
			AuditEvery:          *auditEvery,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "zbpd:", err)
			os.Exit(1)
		}
		srv = coord.Server
		log.Printf("zbpd: coordinating %d backends (router %s)", len(coord.Backends()), *router)
	} else {
		var err error
		srv, err = server.New(server.Config{
			Workers:             *workers,
			QueueDepth:          *queue,
			MaxInstructions:     *maxN,
			DefaultInstructions: *defN,
			MaxSweepCells:       *maxCells,
			DefaultTimeout:      *timeout,
			MaxTimeout:          *maxTO,
			MaxJobs:             *maxJobs,
			JobTTL:              *jobTTL,
			CacheMemBytes:       *cacheMem,
			CacheDir:            *cacheDir,
			CacheDiskBytes:      *cacheDisk,
			AuditEvery:          *auditEvery,
			TraceDir:            *traceDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "zbpd:", err)
			os.Exit(1)
		}
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("%s: listening on %s", role, *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "zbpd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Printf("%s: signal received, draining (grace %v)", role, *grace)
		// Drain first: it cancels running async jobs and terminates
		// their event streams, so long-lived streaming connections do
		// not hold Shutdown open for the whole grace budget.
		srv.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		// Shutdown stops the listener and waits for handlers — which
		// themselves wait on their queued simulations — up to the
		// grace budget; past it, Close force-drops connections, which
		// cancels the request contexts and stops the sims.
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("%s: grace expired, force closing: %v", role, err)
			hs.Close()
		}
		// With no handlers left there are no queue submitters; drain
		// whatever the workers still hold.
		srv.Close()
		log.Printf("%s: drained, exiting", role)
	}
}
