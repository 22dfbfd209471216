// Package serve is the simulation-as-a-service layer: an HTTP JSON daemon
// that accepts experiment-suite submissions, executes them on a bounded
// worker pool over the exp.Runner engine, streams typed progress events to
// clients via SSE, and persists results through the engine's disk cache so
// identical runs are served without simulation across restarts and across
// clients.
//
// API (all JSON):
//
//	POST   /v1/jobs             submit a JobSpec  -> 202 JobStatus
//	                            (429 + Retry-After when the queue is full,
//	                             503 while draining)
//	GET    /v1/jobs             list jobs (newest first, no result bodies)
//	GET    /v1/jobs/{id}        job status; includes the result document
//	                            (the same shape as conspec-bench -json)
//	                            once the job is done
//	GET    /v1/jobs/{id}/events SSE stream: full event history replay, then
//	                            live "progress"/"state" frames; the stream
//	                            ends after the terminal state frame
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/trace  Chrome trace-event JSON for the job's span
//	                            subtree (queue-wait, execution, per-suite,
//	                            per-run, per-phase) — load in Perfetto
//	GET    /metrics             Prometheus text exposition (server counters)
//	GET    /healthz             liveness + drain state
//	GET    /debug/pprof/        net/http/pprof profiles (Config.Pprof only)
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/obs/trace"
	"conspec/internal/serve/journal"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrently executing jobs (default 2). Each running
	// job drives its own exp.Runner, whose simulation concurrency is
	// bounded by SimWorkers.
	Workers int
	// QueueCap bounds jobs accepted but not yet running (default 16).
	// Submissions beyond it are rejected with 429 + Retry-After.
	QueueCap int
	// SimWorkers bounds each job's concurrent simulations (default:
	// GOMAXPROCS via the engine).
	SimWorkers int
	// RunTimeout is the default per-simulation wall-clock bound; a job
	// spec's run_timeout_ms overrides it.
	RunTimeout time.Duration
	// Cache, when non-nil, is the persistent result store shared by every
	// job's Runner (and with conspec-bench -cache-dir users of the same
	// directory). When it additionally implements CacheStats (as
	// *diskcache.Store does), its occupancy and eviction counters are
	// exported through /metrics.
	Cache exp.ResultCache
	// Journal, when non-nil, is the durable job journal: every accepted
	// job is appended (and fsynced) before the submitter sees 202, and
	// every lifecycle transition is recorded, so a kill -9 loses no
	// accepted work. Open it with journal.Open and pass the recovered
	// states via Recovered.
	Journal *journal.Journal
	// Recovered is the non-terminal job states journal.Open replayed.
	// New re-queues them (oldest first, ahead of fresh submissions) with
	// the recovered flag set on their status and re-executes them;
	// simulations that completed before the crash are served from Cache.
	Recovered []journal.State
	// Executor, when non-nil, replaces the in-process job executor: jobs
	// are handed to it instead of being run on a local exp.Runner. The
	// fleet coordinator uses this seam to dispatch jobs to remote leased
	// workers; standalone servers leave it nil and execute locally. It must
	// be set here, not after New: recovered jobs can reach the pool before
	// New returns.
	Executor Executor
	// Capacity, when non-nil, reports the service's live execution
	// capacity in slots (for a fleet: registered, non-draining workers ×
	// their slots). Retry-After estimates divide the recent job latency by
	// it instead of by Workers, so backpressure hints stay accurate when
	// capacity is dynamic. Zero capacity falls back to 1 (the estimate
	// clamps at 600s anyway).
	Capacity func() int
	// Logf, when non-nil, receives one line per job lifecycle transition.
	Logf func(format string, args ...any)
	// SSEKeepalive is how often an idle event stream emits a comment frame
	// so intermediaries don't drop long watches (default 15s).
	SSEKeepalive time.Duration
	// TraceSpans bounds the server-wide span tracer's ring (default 16384
	// spans; the ring drops rather than grows when full).
	TraceSpans int
	// Pprof, when true, mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// Executor is the pluggable job-execution backend behind Config.Executor.
// Execute runs one job end to end and returns its result document, engine
// stats, and failed-run count; a ctx cancellation should unwind with
// ctx.Err() (the server maps it to the canceled state when the client
// requested the cancel). Execute is called from the server's worker pool,
// so implementations bound their own concurrency.
type Executor interface {
	Execute(ctx context.Context, job ExecJob) (*report.Report, exp.Stats, int, error)
}

// ExecJob is what an Executor sees of a job: identity, spec, and callbacks
// back into the server's event stream and status record.
type ExecJob struct {
	ID   string
	Spec JobSpec
	// Recovered marks a job replayed from the journal after a restart.
	Recovered bool
	// Span is the job's execute span on the server's tracer; the local
	// executor parents the engine's suite/run/phase spans under it.
	Span trace.SpanID
	// Emit forwards one engine progress event to the job's SSE watchers.
	Emit func(exp.ProgressEvent)
	// SetWorker records which fleet worker is executing (or executed) the
	// job; it shows up as the status document's worker field and in
	// conspec-ctl list. Safe to call repeatedly (re-leases overwrite).
	SetWorker func(worker string)
}

// Server owns the job table, the queue, and the worker pool. Create with
// New, expose via Handler, stop with Drain (graceful) or Close (forced).
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job
	quit  chan struct{}
	wg    sync.WaitGroup
	// epoch identifies this server process on every event frame, so a
	// reconnecting watcher can tell "same history, resume from my last
	// seq" apart from "server restarted, the history restarted too".
	epoch string

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order; listings walk it newest-first
	queued   int
	running  int
	draining bool
	// latency ring over recently completed jobs, for deriving Retry-After
	// estimates on 429/503 responses.
	recentLat [latWindow]time.Duration
	latCount  int
	latIdx    int
	// n holds the /metrics counters (metrics.go).
	n counters

	// tracer holds every span the server records: HTTP requests, job
	// lifecycles (queue-wait/execute), and — through RunnerOptions.Trace —
	// each job's suite/run/phase spans. GET /v1/jobs/{id}/trace exports one
	// job's subtree.
	tracer *trace.Tracer
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.SSEKeepalive <= 0 {
		cfg.SSEKeepalive = defaultSSEKeepalive
	}
	if cfg.TraceSpans <= 0 {
		cfg.TraceSpans = 16384
	}
	s := &Server{
		cfg: cfg,
		// The channel holds every recovered job plus a full queue of fresh
		// ones; admission control is the queued-count check in
		// handleSubmit, so sends under s.mu can never block.
		queue:  make(chan *job, cfg.QueueCap+len(cfg.Recovered)),
		quit:   make(chan struct{}),
		epoch:  randHex(4),
		jobs:   make(map[string]*job),
		tracer: trace.New(cfg.TraceSpans),
	}
	if cfg.Executor == nil {
		s.cfg.Executor = localExecutor{ExecOptions{
			Cache:      cfg.Cache,
			SimWorkers: cfg.SimWorkers,
			RunTimeout: cfg.RunTimeout,
			Trace:      s.tracer,
		}}
	}
	s.recover(cfg.Recovered)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler serving the API above. Every request is
// wrapped in a root tracer span named "http:<method> <path>" (SSE watches
// included — their spans stay open for the watch's lifetime and export with
// their duration so far).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := s.tracer.Begin(trace.NoSpan, "http:"+r.Method+" "+r.URL.Path)
		defer s.tracer.End(sp)
		s.mux.ServeHTTP(w, r)
	})
}

// Tracer exposes the server-wide span tracer (for embedding callers that
// want to export the whole timeline rather than one job's subtree).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// recover re-queues journaled jobs (called from New, before the worker
// pool starts and before any request, so s.mu is not needed). Ordering is
// preserved: Config.Recovered arrives oldest first from journal.Open, and
// the queue channel was sized to hold all of them, so fresh submissions
// line up behind the backlog.
func (s *Server) recover(states []journal.State) {
	for _, st := range states {
		var spec JobSpec
		if err := json.Unmarshal(st.Spec, &spec); err != nil {
			s.logf("journal: job %s: dropping unreadable spec: %v", st.Job, err)
			s.journalAppend(journal.OpFailed, nil, "unreadable journaled spec: "+err.Error(), st.Job)
			continue
		}
		if err := spec.validate(); err != nil {
			// The spec was valid when accepted; a registry/bench rename
			// across the restart can invalidate it. Fail it cleanly rather
			// than crash-loop on it forever.
			s.logf("journal: job %s: spec no longer valid: %v", st.Job, err)
			s.journalAppend(journal.OpFailed, nil, "journaled spec no longer valid: "+err.Error(), st.Job)
			continue
		}
		s.enqueueLocked(newJob(st.Job, spec, s.epoch, st.Submitted, true))
		s.n.recovered++
		s.logf("job %s: recovered from journal (suite %s, was %s)", st.Job, spec.Suite, st.Op)
	}
}

// enqueueLocked opens a new job's trace spans, makes it visible and hands
// it to the worker pool. The send cannot block: the channel was sized for
// QueueCap fresh jobs plus the recovered backlog, and handleSubmit admits
// only while queued is below QueueCap. Caller holds s.mu, or is recover.
func (s *Server) enqueueLocked(j *job) {
	j.span = s.tracer.Begin(trace.NoSpan, "job:"+j.id)
	s.tracer.Annotate(j.span, "suite", j.spec.Suite)
	if j.recovered {
		s.tracer.Annotate(j.span, "recovered", "true")
	}
	j.queueSpan = s.tracer.Begin(j.span, "queue-wait")
	// Armed before the job becomes visible to workers and subscribers.
	j.onAbandoned = func() {
		if j.requestCancel() {
			s.logf("job %s: canceled (last watcher disconnected)", j.id)
		}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queued++
	s.queue <- j
}

// journalAppend records a lifecycle transition, logging rather than
// propagating append failures for non-submit ops (the submit path handles
// its error explicitly — that is the durability guarantee; later ops
// degrade to re-execution on recovery).
func (s *Server) journalAppend(op journal.Op, spec json.RawMessage, errMsg, jobID string) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(op, jobID, spec, errMsg); err != nil {
		s.logf("journal: append %s for job %s: %v", op, jobID, err)
	}
}

// randHex returns n random bytes as 2n hex chars.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("serve: rand: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// worker pulls jobs until quit closes. Drain closes quit only once the
// queue is empty, so a worker never abandons queued work.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.process(j)
		case <-s.quit:
			// Drain any job that raced in between the counter check and
			// the close; requestCancel marked them, process() skips fast.
			for {
				select {
				case j := <-s.queue:
					s.process(j)
				default:
					return
				}
			}
		}
	}
}

// process executes one dequeued job end to end and maintains the
// queued/running accounting and server counters.
func (s *Server) process(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.tracer.End(j.queueSpan)
	if !j.begin(cancel) {
		// Canceled while queued.
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		j.finish(StatusCanceled, nil, nil, 0, "canceled while queued")
		s.journalAppend(journal.OpCanceled, nil, "", j.id)
		s.tracer.Annotate(j.span, "status", string(StatusCanceled))
		s.tracer.End(j.span)
		s.finished(StatusCanceled, exp.Stats{})
		s.logf("job %s: canceled while queued", j.id)
		return
	}
	s.mu.Lock()
	s.queued--
	s.running++
	s.mu.Unlock()
	s.journalAppend(journal.OpStarted, nil, "", j.id)
	s.logf("job %s: running (suite %s)", j.id, j.spec.Suite)

	started := time.Now()
	execSpan := s.tracer.Begin(j.span, "execute")
	rep, stats, failedRuns, err := s.cfg.Executor.Execute(ctx, ExecJob{
		ID:        j.id,
		Spec:      j.spec,
		Recovered: j.recovered,
		Span:      execSpan,
		Emit:      j.progress,
		SetWorker: j.setWorker,
	})
	s.tracer.End(execSpan)

	status := StatusDone
	errMsg := ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) && j.canceled():
		status, errMsg = StatusCanceled, "canceled"
		rep = nil
	default:
		status, errMsg = StatusFailed, err.Error()
		rep = nil
	}
	j.finish(status, rep, report.Engine(stats), failedRuns, errMsg)
	switch status {
	case StatusDone:
		s.journalAppend(journal.OpDone, nil, "", j.id)
		s.observeLatency(time.Since(started))
	case StatusFailed:
		s.journalAppend(journal.OpFailed, nil, errMsg, j.id)
	case StatusCanceled:
		s.journalAppend(journal.OpCanceled, nil, "", j.id)
	}
	s.tracer.Annotate(j.span, "status", string(status))
	s.tracer.End(j.span)

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	s.finished(status, stats)
	s.logf("job %s: %s (executed %d, mem hits %d, disk hits %d, failed runs %d)",
		j.id, status, stats.Executed, stats.Hits, stats.DiskHits, failedRuns)
}

// canceled reports whether a cancel was requested for the job.
func (j *job) canceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelASAP
}

// localExecutor is the standalone server's Executor: one engine per job
// (per-job progress attribution and stats), the shared persistent cache
// underneath, the engine's spans under the job's execute span.
type localExecutor struct{ opts ExecOptions }

func (e localExecutor) Execute(ctx context.Context, job ExecJob) (*report.Report, exp.Stats, int, error) {
	o := e.opts
	o.TraceRoot = job.Span
	return ExecuteSpec(ctx, job.Spec, o, job.Emit)
}

// ExecOptions parameterizes ExecuteSpec: the persistent cache tier, the
// process-level defaults a spec may narrow, and optional span tracing.
// StoreOnly answers the spec from Cache without simulating, failing with
// exp.ErrNotStored at the first run Cache does not hold
// (exp.RunnerOptions.StoreOnly), and before any lookup for a spec with a
// suite whose registry row is not Stored.
type ExecOptions struct {
	Cache      exp.ResultCache
	SimWorkers int
	RunTimeout time.Duration
	Trace      *trace.Tracer
	TraceRoot  trace.SpanID
	StoreOnly  bool
}

// ExecuteSpec runs one JobSpec's suites on a fresh exp.Runner and returns
// the result document, engine stats, and failed-run count. It is the
// single execution path shared by the in-process worker pool, the fleet
// worker (which runs it against a tiered local+remote cache) and the fleet
// coordinator (store-only, over its result store).
func ExecuteSpec(ctx context.Context, js JobSpec, o ExecOptions, emit func(exp.ProgressEvent)) (*report.Report, exp.Stats, int, error) {
	spec := exp.DefaultSpec()
	if js.Warmup > 0 {
		spec.Warmup = js.Warmup
	}
	if js.Measure > 0 {
		spec.Measure = js.Measure
	}
	spec.MetricsInterval = js.MetricsInterval
	spec.SelfCheck = js.SelfCheck
	spec.FlightWindow = js.FlightWindow

	timeout := o.RunTimeout
	if js.RunTimeoutMS > 0 {
		timeout = time.Duration(js.RunTimeoutMS) * time.Millisecond
	}
	workers := o.SimWorkers
	if js.Workers > 0 && (workers <= 0 || js.Workers < workers) {
		workers = js.Workers
	}
	suites, err := exp.SuitesNamed(js.Suite) // validated at submit; re-checked for defense
	if err != nil {
		return nil, exp.Stats{}, 0, err
	}
	if o.StoreOnly {
		// Refuse a job with a suite the store never holds before reading
		// the store for its other suites.
		for _, s := range suites {
			if !s.Stored {
				return nil, exp.Stats{}, 0, exp.ErrNotStored
			}
		}
	}
	runner := exp.NewRunner(exp.RunnerOptions{
		Workers:   workers,
		OnEvent:   emit,
		Timeout:   timeout,
		Cache:     o.Cache,
		Trace:     o.Trace,
		TraceRoot: o.TraceRoot,
		StoreOnly: o.StoreOnly,
	})
	rep := report.New()
	for _, s := range suites {
		res, err := runner.RunSuite(ctx, s.ID, exp.Options{Spec: spec, Benches: js.Benches, Defenses: js.Defenses})
		if err != nil {
			return nil, runner.Stats(), len(runner.Errors()), err
		}
		rep.AddSuite(res)
	}
	rep.Finish(runner)
	return rep, runner.Stats(), len(runner.Errors()), nil
}

// counts returns (queued, running) under the server lock.
func (s *Server) counts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.running
}

// latWindow is how many recently completed jobs the latency estimate
// averages over.
const latWindow = 8

// observeLatency records one successfully completed job's wall-clock
// execution time into the ring behind Retry-After estimates.
func (s *Server) observeLatency(d time.Duration) {
	s.mu.Lock()
	s.recentLat[s.latIdx] = d
	s.latIdx = (s.latIdx + 1) % latWindow
	if s.latCount < latWindow {
		s.latCount++
	}
	s.mu.Unlock()
}

// avgLatencyLocked averages the ring (0 when no job has completed yet).
// Caller holds s.mu.
func (s *Server) avgLatencyLocked() time.Duration {
	if s.latCount == 0 {
		return 0
	}
	var sum time.Duration
	for i := 0; i < s.latCount; i++ {
		sum += s.recentLat[i]
	}
	return sum / time.Duration(s.latCount)
}

// retryAfterSecs estimates how many seconds until capacity for `ahead`
// more jobs frees up, given the recent average job latency and the worker
// pool width: the pool completes one job every avg/workers on average.
// With no latency history yet it falls back to fallbackSecs (the
// pre-derivation constants). The estimate is clamped to [1, 600].
func retryAfterSecs(ahead, workers int, avg time.Duration, fallbackSecs int) int {
	if avg <= 0 {
		return fallbackSecs
	}
	if workers < 1 {
		workers = 1
	}
	if ahead < 1 {
		ahead = 1
	}
	est := avg * time.Duration(ahead) / time.Duration(workers)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// capacity returns the slot count Retry-After estimates divide by: the
// live fleet capacity when Config.Capacity is wired (registered,
// non-draining workers × slots), else the static local pool width. An
// empty fleet degrades to 1 — the estimate clamps at 600s regardless.
func (s *Server) capacity() int {
	if s.cfg.Capacity != nil {
		if c := s.cfg.Capacity(); c > 0 {
			return c
		}
		return 1
	}
	return s.cfg.Workers
}

// retryAfterLocked renders the Retry-After value for a rejection while
// holding s.mu. For a full queue (429) the caller should retry once one
// job finishes; for draining (503) once the whole backlog flushes.
func (s *Server) retryAfterLocked(draining bool) string {
	avg := s.avgLatencyLocked()
	if draining {
		return strconv.Itoa(retryAfterSecs(s.queued+s.running, s.capacity(), avg, 10))
	}
	return strconv.Itoa(retryAfterSecs(1, s.capacity(), avg, 2))
}

// newJobID returns a fresh random job id ("j" + 12 hex chars).
func newJobID() string {
	return "j" + randHex(6)
}

// Drain gracefully stops the server: new submissions are rejected with
// 503, queued and running jobs are completed (losing none of their
// results), and the worker pool exits. If ctx expires first, live jobs are
// canceled, the pool is still waited for, and ctx.Err() is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.logf("draining: waiting for queued and running jobs")

	var err error
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		if q, r := s.counts(); q == 0 && r == 0 {
			break
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			err = ctx.Err()
			s.logf("drain deadline: canceling live jobs")
			s.cancelAll()
			break wait
		}
	}
	if err != nil {
		// Canceled jobs unwind quickly; wait for the counters to settle so
		// workers are idle before quit closes.
		for q, r := s.counts(); q != 0 || r != 0; q, r = s.counts() {
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(s.quit)
	s.wg.Wait()
	// Defensive sweep: with admission strictly ordered against the drain
	// flag nothing should remain, but an accepted job must never be
	// silently dropped — fail anything still queued to a clean terminal
	// state and journal it.
	for {
		select {
		case j := <-s.queue:
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
			j.finish(StatusCanceled, nil, nil, 0, "server stopped before the job ran")
			s.journalAppend(journal.OpCanceled, nil, "", j.id)
			s.finished(StatusCanceled, exp.Stats{})
			s.logf("job %s: canceled (server stopped before it ran)", j.id)
		default:
			s.logf("drained")
			return err
		}
	}
}

// Close force-stops the server: reject new work, cancel everything live,
// and wait for the pool. For tests and fatal shutdown paths.
func (s *Server) Close() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
}

// cancelAll requests cancellation of every non-terminal job.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.requestCancel()
	}
}

// ---- handlers ----

// WriteJSON writes v as an indented JSON reply with status code: the one
// responder behind every JSON endpoint of the tier, the fleet's included.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the {"error": msg} body every API error carries.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

// maxBody bounds a JSON request body. The largest are fleet result
// documents, JSON in the tens of KB; 64 MiB is a ceiling, not a working
// size.
const maxBody = 64 << 20

// ReadJSON decodes r's body into v. When the body is not one, it answers
// 400 "bad <what>: <reason>" and returns false.
func ReadJSON(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad "+what+": "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !ReadJSON(w, r, "job spec", &spec) {
		return
	}
	if err := spec.validate(); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	// Admission happens entirely under s.mu, strictly ordered against
	// Drain's setting of the draining flag: a submission either completes
	// its enqueue before the drain begins (and the drain then waits for
	// it) or observes draining and is rejected with a clean 503 — it can
	// never be accepted after the drain's queue audit and silently
	// dropped. Drain additionally sweeps the queue after the workers exit
	// and fails anything left, so an accepted job always reaches a
	// terminal state.
	if s.draining {
		ra := s.retryAfterLocked(true)
		s.mu.Unlock()
		w.Header().Set("Retry-After", ra)
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.queued >= s.cfg.QueueCap {
		ra := s.retryAfterLocked(false)
		s.n.rejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", ra)
		WriteError(w, http.StatusTooManyRequests, "job queue is full")
		return
	}
	id := newJobID()
	for s.jobs[id] != nil {
		id = newJobID()
	}
	// Journal (and fsync) before the job becomes visible: a 202 means the
	// submission survives kill -9. A journal write failure refuses the
	// job — accepting work we cannot make durable would silently downgrade
	// the crash-safety contract.
	if s.cfg.Journal != nil {
		specJSON, err := json.Marshal(spec)
		if err == nil {
			err = s.cfg.Journal.Append(journal.OpSubmitted, id, specJSON, "")
		}
		if err != nil {
			s.mu.Unlock()
			s.logf("job %s: journal submit: %v", id, err)
			WriteError(w, http.StatusInternalServerError, "journal write failed: "+err.Error())
			return
		}
	}
	j := newJob(id, spec, s.epoch, time.Now().UTC(), false)
	s.enqueueLocked(j)
	s.n.submitted++
	s.mu.Unlock()
	s.logf("job %s: queued (suite %s)", id, spec.Suite)
	w.Header().Set("Location", "/v1/jobs/"+id)
	WriteJSON(w, http.StatusAccepted, j.snapshot(false))
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot(false))
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].Created.After(out[k].Created) })
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, j.snapshot(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.requestCancel() {
		// A queued job's cancel is made durable immediately: without this
		// record, a crash before a worker dequeues it would resurrect a
		// job the client was told is canceled. (The worker's own terminal
		// append for it later is an idempotent duplicate.) A running job is
		// journaled by its worker when the cancellation unwinds.
		if j.snapshot(false).Status == StatusQueued {
			s.journalAppend(journal.OpCanceled, nil, "", j.id)
		}
		s.logf("job %s: cancel requested", j.id)
	}
	WriteJSON(w, http.StatusOK, j.snapshot(false))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	queued, running := s.counts()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": draining,
		"queued":   queued,
		"running":  running,
	})
}

// handleTrace exports one job's span subtree as Chrome trace-event JSON,
// loadable in Perfetto / chrome://tracing. Open spans (a still-running job)
// export with their duration so far; the endpoint works at any job state.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.span == trace.NoSpan {
		// Span ring was full at submission; there is nothing to export.
		WriteError(w, http.StatusNotFound, "no trace recorded for job (span ring full)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.id+".trace.json"))
	if err := s.tracer.WriteChromeSubtree(w, j.span); err != nil {
		s.logf("job %s: trace export: %v", j.id, err)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}
