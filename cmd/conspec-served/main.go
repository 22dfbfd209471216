// Command conspec-served runs the simulation service: an HTTP daemon that
// accepts experiment-suite jobs, executes them on a bounded worker pool,
// streams progress over SSE, and (with -cache-dir) serves repeated
// submissions from the persistent result store without simulating.
//
//	conspec-served -addr :8344 -cache-dir /var/cache/conspec
//
// Submit with conspec-ctl or plain curl:
//
//	curl -s -X POST localhost:8344/v1/jobs -d '{"suite":"fig5"}'
//	curl -N localhost:8344/v1/jobs/<id>/events
//	curl -s localhost:8344/v1/jobs/<id>
//	curl -s localhost:8344/v1/jobs/<id>/trace > job.trace.json
//
// Every request, queue wait, and job execution is span-traced; the trace
// endpoint serves a job's subtree as Perfetto-loadable JSON. -pprof mounts
// the runtime profiler under /debug/pprof/.
//
// With -data-dir the server keeps a durable job journal: every accepted
// job is fsynced before the 202, and jobs interrupted by a crash are
// re-queued on the next start (their finished simulations replayed from the
// -cache-dir store). -cache-max-bytes bounds that store with LRU eviction;
// -cache-gc-interval adds a background sweep that also quarantines corrupt
// entries.
//
// # Distributed execution
//
// -role selects the process's place in a fleet:
//
//	standalone   (default) everything in one process, as above
//	coordinator  the same public API, but jobs are leased to registered
//	             workers; /fleet/v1/ endpoints and fleet metrics appear
//	worker       no public API: join a coordinator with -join, lease jobs
//	             (-slots at a time), execute them against the coordinator's
//	             result store layered over the local -cache-dir, publish
//	             results back
//
//	conspec-served -role coordinator -addr :8344 -cache-dir /var/cache/conspec -data-dir /var/lib/conspec
//	conspec-served -role worker -join http://coord:8344 -slots 2 -cache-dir /var/cache/conspec-w1
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, queued and
// running jobs finish (bounded by -drain-timeout), then the process exits.
// A worker abandons its active leases on shutdown, which re-queues them at
// the coordinator immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"conspec/internal/buildinfo"
	"conspec/internal/diskcache"
	"conspec/internal/fleet"
	"conspec/internal/serve"
	"conspec/internal/serve/journal"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8344", "listen address")
		cacheDir   = flag.String("cache-dir", "", "persistent result store directory (empty = memory-only per job)")
		dataDir    = flag.String("data-dir", "", "durable job journal directory: accepted jobs survive crashes and are re-queued on restart (empty = no journal)")
		cacheMax   = flag.Int64("cache-max-bytes", 0, "result store size budget; least-recently-used entries are evicted past it (0 = unbounded)")
		cacheGC    = flag.Duration("cache-gc-interval", 0, "background cache GC sweep cadence, revalidating entries and enforcing the budget (0 = off)")
		jobWorkers = flag.Int("workers", 2, "max concurrently executing jobs (coordinator role defaults to 32: jobs only await fleet leases)")
		queueCap   = flag.Int("queue-cap", 16, "max queued jobs before submissions get 429")
		simWorkers = flag.Int("sim-workers", 0, "max concurrent simulations per job (0 = GOMAXPROCS)")
		runTmo     = flag.Duration("run-timeout", 0, "default wall-clock bound per simulation (0 = none; jobs may override)")
		drainTmo   = flag.Duration("drain-timeout", 10*time.Minute, "max time to wait for in-flight jobs on shutdown")
		keepalive  = flag.Duration("sse-keepalive", 0, "idle event-stream keepalive comment cadence (0 = 15s default); lower it below your proxy's idle timeout")
		traceSpans = flag.Int("trace-spans", 0, "span tracer ring capacity (0 = default); oldest spans are evicted when full")
		pprofF     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		version    = flag.Bool("version", false, "print build information and exit")

		role       = flag.String("role", "standalone", "process role: standalone, coordinator, or worker")
		join       = flag.String("join", "", "coordinator base URL to join (worker role)")
		slots      = flag.Int("slots", 1, "concurrent leases to execute (worker role)")
		workerName = flag.String("worker-name", "", "stable worker name to register under (worker role; empty = coordinator assigns)")
		hbEvery    = flag.Duration("heartbeat", 2*time.Second, "worker heartbeat interval (coordinator role)")
		hbTimeout  = flag.Duration("heartbeat-timeout", 0, "silence before a worker is declared lost and its leases re-queued (coordinator role; 0 = 3x heartbeat)")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Short("conspec-served"))
		return
	}
	logger := log.New(os.Stderr, "conspec-served: ", log.LstdFlags)

	switch *role {
	case "standalone", "coordinator":
	case "worker":
		if *join == "" {
			logger.Fatalf("-role worker requires -join <coordinator URL>")
		}
		runWorker(logger, workerConfig{
			join:       *join,
			name:       *workerName,
			slots:      *slots,
			simWorkers: *simWorkers,
			runTimeout: *runTmo,
			cacheDir:   *cacheDir,
			cacheMax:   *cacheMax,
			cacheGC:    *cacheGC,
		})
		return
	default:
		logger.Fatalf("unknown -role %q (want standalone, coordinator, or worker)", *role)
	}

	// In coordinator mode an "executing" job is a goroutine awaiting a
	// fleet lease, not a CPU-bound simulation, so the concurrency cap
	// defaults much wider — unless the operator set -workers explicitly.
	if *role == "coordinator" {
		workersSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				workersSet = true
			}
		})
		if !workersSet {
			*jobWorkers = 32
		}
	}

	cfg := serve.Config{
		Workers:      *jobWorkers,
		QueueCap:     *queueCap,
		SimWorkers:   *simWorkers,
		RunTimeout:   *runTmo,
		SSEKeepalive: *keepalive,
		TraceSpans:   *traceSpans,
		Pprof:        *pprofF,
		Logf:         logger.Printf,
	}
	if *cacheDir != "" {
		store, err := diskcache.OpenWith(*cacheDir, diskcache.Options{MaxBytes: *cacheMax, GCInterval: *cacheGC})
		if err != nil {
			logger.Fatalf("open cache: %v", err)
		}
		defer store.Close()
		cfg.Cache = store
		budget := "unbounded"
		if *cacheMax > 0 {
			budget = fmt.Sprintf("%d byte budget", *cacheMax)
		}
		logger.Printf("result store: %s (%d entries for this build, %s)", store.Dir(), store.Len(), budget)
	}
	var jr *journal.Journal
	if *dataDir != "" {
		var recovered []journal.State
		var err error
		jr, recovered, err = journal.Open(*dataDir, journal.Options{})
		if err != nil {
			logger.Fatalf("open journal: %v", err)
		}
		defer jr.Close()
		cfg.Journal = jr
		cfg.Recovered = recovered
		logger.Printf("job journal: %s (%d interrupted jobs to recover)", *dataDir, len(recovered))
	}

	var coord *fleet.Coordinator
	if *role == "coordinator" {
		coord = fleet.NewCoordinator(fleet.CoordinatorOptions{
			Store:             cfg.Cache,
			Journal:           jr,
			HeartbeatInterval: *hbEvery,
			HeartbeatTimeout:  *hbTimeout,
			Logf:              logger.Printf,
		})
		defer coord.Close()
		cfg.Executor = coord
		cfg.Capacity = coord.Capacity
	}

	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	handler := srv.Handler()
	if coord != nil {
		handler = coord.Handler(handler)
		logger.Printf("coordinator: leasing jobs to fleet workers (heartbeat %s)", *hbEvery)
	}
	hs := &http.Server{Handler: handler}
	logger.Printf("listening on http://%s (%s)", ln.Addr(), buildinfo.Get().Identity())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("%s: draining (up to %s)", sig, *drainTmo)
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTmo)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logger.Printf("drain: %v (live jobs were canceled)", err)
	}
	if err := hs.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
	}
	logger.Printf("bye")
}

// workerConfig is the subset of flags the worker role uses.
type workerConfig struct {
	join       string
	name       string
	slots      int
	simWorkers int
	runTimeout time.Duration
	cacheDir   string
	cacheMax   int64
	cacheGC    time.Duration
}

// runWorker joins a coordinator and serves leases until SIGINT/SIGTERM.
func runWorker(logger *log.Logger, wc workerConfig) {
	var local fleet.ResultStore
	if wc.cacheDir != "" {
		store, err := diskcache.OpenWith(wc.cacheDir, diskcache.Options{MaxBytes: wc.cacheMax, GCInterval: wc.cacheGC})
		if err != nil {
			logger.Fatalf("open cache: %v", err)
		}
		defer store.Close()
		local = store
		logger.Printf("local result store: %s (%d entries for this build)", store.Dir(), store.Len())
	}

	w := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator: wc.join,
		Name:        wc.name,
		Slots:       wc.slots,
		SimWorkers:  wc.simWorkers,
		RunTimeout:  wc.runTimeout,
		LocalCache:  local,
		Logf:        logger.Printf,
	})
	logger.Printf("worker: joining %s (%d slots, %s)", wc.join, wc.slots, buildinfo.Get().Identity())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("%s: abandoning active leases and leaving the fleet", sig)
		cancel()
		if err := <-done; err != nil {
			logger.Fatalf("worker: %v", err)
		}
	case err := <-done:
		cancel()
		if err != nil {
			logger.Fatalf("worker: %v", err)
		}
	}
	logger.Printf("bye")
}
