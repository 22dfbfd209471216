package exp

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"conspec/internal/attack"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/mem"
	"conspec/internal/obs"
	"conspec/internal/obs/trace"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// EventPhase classifies a ProgressEvent.
type EventPhase string

const (
	// PhaseRunStart fires when a unique simulation begins executing.
	PhaseRunStart EventPhase = "run-start"
	// PhaseRunDone fires when a unique simulation finishes; Cycles and
	// Wall are populated.
	PhaseRunDone EventPhase = "run-done"
	// PhaseCached fires when a submitted run is served from the memo
	// cache (or coalesced onto an identical in-flight run).
	PhaseCached EventPhase = "cached"
	// PhaseBenchDone fires once per benchmark per suite after all of its
	// runs complete; Line carries the human-readable summary.
	PhaseBenchDone EventPhase = "bench-done"
	// PhaseError fires when a run fails or panics; Err is populated.
	PhaseError EventPhase = "error"
)

// ProgressEvent is the typed progress stream that replaces the old
// func(string) callbacks. Engine-level events (run-start/run-done/cached)
// describe individual simulations; suites additionally emit bench-done
// events whose Line field preserves the legacy per-benchmark text.
//
// The type is JSON-serializable (wire.go) with stable phase strings, so the
// serve layer's SSE stream and in-process callbacks share one shape.
type ProgressEvent struct {
	Suite     SuiteID
	Benchmark string
	Mechanism string
	Phase     EventPhase
	CacheHit  bool
	// Tier names the cache tier that served a PhaseCached event: TierMemory
	// for the in-process memo map, TierDisk for the persistent store.
	Tier   string
	Cycles uint64
	Wall   time.Duration
	Err    error
	// Line is the pre-rendered human-readable form (bench-done events
	// only); legacy func(string) adapters forward exactly these lines.
	Line string
}

// String renders the event for verbose logs.
func (e ProgressEvent) String() string {
	if e.Line != "" {
		return e.Line
	}
	switch e.Phase {
	case PhaseCached:
		return fmt.Sprintf("[%s] %s / %s: cache hit", e.Suite, e.Benchmark, e.Mechanism)
	case PhaseRunDone:
		return fmt.Sprintf("[%s] %s / %s: %d cycles in %v", e.Suite, e.Benchmark, e.Mechanism, e.Cycles, e.Wall)
	case PhaseError:
		return fmt.Sprintf("[%s] %s / %s: error: %v", e.Suite, e.Benchmark, e.Mechanism, e.Err)
	default:
		return fmt.Sprintf("[%s] %s / %s: %s", e.Suite, e.Benchmark, e.Mechanism, e.Phase)
	}
}

// Stats counts what the Runner's scheduler did.
type Stats struct {
	// Executed is the number of unique simulations actually run.
	Executed uint64
	// Hits is the number of submitted runs served from the in-memory memo
	// map, including duplicates coalesced onto an in-flight execution.
	Hits uint64
	// DiskHits is the number of submitted runs served from the persistent
	// ResultCache (zero unless RunnerOptions.Cache is set).
	DiskHits uint64
	// Panics counts runs whose goroutine panicked (isolated into errors).
	Panics uint64
	// SkippedCycles and SkipSpans aggregate the pipeline stall skipper's
	// meta-counters across every executed simulation: how many simulated
	// cycles were fast-forwarded rather than stepped, and in how many spans.
	SkippedCycles uint64
	SkipSpans     uint64
}

// Submitted returns the total number of runs requested from the Runner.
func (s Stats) Submitted() uint64 { return s.Executed + s.Hits + s.DiskHits }

// RunnerOptions configures a Runner.
type RunnerOptions struct {
	// Workers bounds concurrently executing simulations (default:
	// runtime.GOMAXPROCS(0), so a caller that lowers GOMAXPROCS — e.g. a
	// single-threaded profiling run — gets a matching pool, unlike
	// NumCPU which ignores the cap).
	Workers int
	// OnEvent, when non-nil, receives every ProgressEvent. Calls are
	// serialized; the callback must not call back into the Runner.
	OnEvent func(ProgressEvent)
	// Timeout, when non-zero, bounds each simulation's wall-clock time; a
	// run that exceeds it is recorded as a failed run (Errors) and its
	// suite continues without it.
	Timeout time.Duration
	// Cache, when non-nil, is the persistent result tier consulted under
	// the in-memory memo map: a run missing both tiers executes once and
	// is written back, so identical runs are served from disk across
	// processes and restarts.
	Cache ResultCache
	// Trace, when non-nil, receives a span per suite ("suite:<id>"), per
	// submitted run ("run:<bench>", annotated with the mechanism and — for
	// cached submissions — the serving cache tier), and per execution phase
	// ("warmup"/"measure"). Spans from runs submitted outside RunSuite
	// parent to TraceRoot.
	Trace *trace.Tracer
	// TraceRoot, when non-zero, parents every suite span (e.g. an enclosing
	// request or job span owned by the caller).
	TraceRoot trace.SpanID
	// StoreOnly makes the Runner answer from the memo map and Cache alone:
	// it never simulates. The first run that misses both tiers fails with
	// ErrNotStored, and so does every run submitted after it; RunSuite then
	// returns ErrNotStored. A suite whose registry row is not Stored (its
	// attack verdicts are not in the result store) is refused with
	// ErrNotStored before any lookup, through RunSuite or its driver called
	// directly.
	StoreOnly bool
}

// ErrNotStored is a store-only Runner's answer to work it could only do by
// simulating (RunnerOptions.StoreOnly).
var ErrNotStored = errors.New("exp: run not in the result store")

// RunError records one failed run: a simulation that deadlocked, failed a
// self-check audit, exceeded its cycle cap or wall-clock timeout, or
// panicked. Suites degrade gracefully — the failed run is excluded from
// their aggregates and reported here instead.
type RunError struct {
	Suite     SuiteID
	Benchmark string
	Mechanism string
	// Outcome is the pipeline outcome string ("deadlock", "audit-failed",
	// "cycle-cap-exceeded"), or "timeout" / "panic" / "generate" for
	// failures outside the cycle loop.
	Outcome string
	Err     error
	// Flight carries the run's flight-recorder dump when the failed spec
	// had one armed (RunSpec.FlightWindow): the last K cycles of
	// microarchitectural events leading up to the failure.
	Flight *obs.FlightDump
}

// Runner is the unified experiment engine: every suite submits
// RunSpec-keyed jobs and attack verdicts to it, identical requests across
// suites are deduplicated through a memoization cache, and unique ones
// execute once on a bounded worker pool.
type Runner struct {
	workers   int
	onEvent   func(ProgressEvent)
	timeout   time.Duration
	store     ResultCache
	trace     *trace.Tracer
	traceRoot trace.SpanID
	storeOnly bool
	sem       chan struct{}

	// missed is set by a store-only Runner's first miss; from then on no
	// run is looked up and RunSuite returns ErrNotStored.
	missed atomic.Bool

	evMu sync.Mutex // serializes onEvent

	mu         sync.Mutex
	keys       map[runReq]runKey // each run's key, rendered once (keyOf)
	cache      map[runKey]*cacheEntry
	attacks    map[attackKey]*attackEntry
	stats      Stats
	errors     []RunError
	suiteSpans map[SuiteID]trace.SpanID // open suite spans, for run-span parentage

	// testExec, when non-nil, replaces RunWorkload (test hook for panic
	// and determinism tests).
	testExec func(w *workload.Workload, spec RunSpec) pipeline.Result
	// testAttack, when non-nil, replaces Harness.Run (test hook for the
	// attack memo).
	testAttack func(h *attack.Harness, cfg config.Core, sec pipeline.SecurityConfig) attack.Outcome
}

type cacheEntry struct {
	key  runKey
	done chan struct{} // closed when res/err are final
	res  pipeline.Result
	err  error
}

// NewRunner builds a Runner.
func NewRunner(opts RunnerOptions) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers:    workers,
		onEvent:    opts.OnEvent,
		timeout:    opts.Timeout,
		store:      opts.Cache,
		trace:      opts.Trace,
		traceRoot:  opts.TraceRoot,
		storeOnly:  opts.StoreOnly,
		sem:        make(chan struct{}, workers),
		keys:       make(map[runReq]runKey),
		cache:      make(map[runKey]*cacheEntry),
		attacks:    make(map[attackKey]*attackEntry),
		suiteSpans: make(map[SuiteID]trace.SpanID),
	}
}

// suiteSpan returns the parent for a run span submitted under suite:
// the suite's open span when RunSuite is driving it, TraceRoot otherwise.
func (r *Runner) suiteSpan(suite SuiteID) trace.SpanID {
	if r.trace == nil {
		return trace.NoSpan
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp, ok := r.suiteSpans[suite]; ok {
		return sp
	}
	return r.traceRoot
}

// beginRunSpan opens the per-submission span under the suite span and
// stamps the identifying annotations every run shares.
func (r *Runner) beginRunSpan(suite SuiteID, bench string, spec *RunSpec) trace.SpanID {
	if r.trace == nil {
		return trace.NoSpan
	}
	sp := r.trace.Begin(r.suiteSpan(suite), "run:"+bench)
	r.trace.Annotate(sp, "mechanism", mechLabel(*spec))
	return sp
}

// Stats returns a snapshot of the scheduler counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Errors returns every failed run recorded so far, in completion order.
// Callers use it after the suites finish to summarize what was skipped and
// choose a non-zero exit status.
func (r *Runner) Errors() []RunError {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RunError(nil), r.errors...)
}

// recordError logs a failed run for end-of-suite reporting and emits the
// matching PhaseError event.
func (r *Runner) recordError(e RunError) {
	r.mu.Lock()
	r.errors = append(r.errors, e)
	r.mu.Unlock()
	r.emit(ProgressEvent{Suite: e.Suite, Benchmark: e.Benchmark,
		Mechanism: e.Mechanism, Phase: PhaseError, Err: e.Err})
}

func (r *Runner) emit(ev ProgressEvent) {
	if r.onEvent == nil {
		return
	}
	r.evMu.Lock()
	r.onEvent(ev)
	r.evMu.Unlock()
}

// runKey is the deterministic memoization key: a hash over every input that
// determines a simulation's result.
type runKey [sha256.Size]byte

// keyOf canonicalizes (core config, security config, L1D update policy,
// workload profile, instruction budgets) into the cache key. The full
// Profile — not just its name — participates, because suites derive
// variants that share a name (e.g. the fence-recompiled kernels in the
// defense comparison). Observation-only fields (FlightWindow) are
// deliberately excluded: they cannot change a result, so armed and unarmed
// submissions deduplicate onto one execution.
func keyOf(p workload.Profile, spec RunSpec) runKey {
	h := sha256.New()
	fmt.Fprintf(h, "core=%#v\nsec=%#v\nl1d=%d\nwarmup=%d\nmeasure=%d\nmaxcycles=%d\nmetricsinterval=%d\nselfcheck=%d\nworkload=%#v\n",
		spec.Core, spec.Sec, spec.L1DUpdate, spec.Warmup, spec.Measure, spec.MaxCycles, spec.MetricsInterval, spec.SelfCheck, p)
	var k runKey
	h.Sum(k[:0])
	return k
}

// mechLabel renders the run's security configuration for progress events,
// titled by the registry row its (Mechanism, SSBD) identity names.
func mechLabel(spec RunSpec) string {
	d, _ := core.DefenseFor(spec.Sec.Mechanism, spec.Sec.SSBD) // pipeline.New panics on a mechanism without a row
	l := d.Title()
	if spec.Sec.Scope == core.ScopeBranchOnly {
		l += " (branch-only)"
	}
	if spec.Sec.ICacheFilter {
		l += " +icache-filter"
	}
	if spec.Sec.DTLBFilter {
		l += " +dtlb-filter"
	}
	switch spec.L1DUpdate {
	case mem.UpdateNoSpec:
		l += " [no-update]"
	case mem.UpdateDelayed:
		l += " [delayed-update]"
	}
	return l
}

// runReq is one simulation a suite asks the Runner for. With its spec's
// observation-only FlightWindow zeroed it is also the run's identity as Go
// compares it, keying r.keys: the inputs keyOf renders. Two such identities
// are equal exactly when their keys are, except for a float field holding
// -0 or NaN, which no registered profile or suite variant has.
type runReq struct {
	p    workload.Profile
	spec RunSpec
}

// withSec returns spec running under the security configuration sec.
func withSec(spec RunSpec, sec pipeline.SecurityConfig) RunSpec {
	spec.Sec = sec
	return spec
}

// runAll executes (or recalls) a batch of simulations — one profile's
// runs in the suites — and returns results and errors in request order,
// once every run it started has finished. Identical submissions share a
// single execution: the first submitter owns the run, concurrent
// duplicates wait on the same entry, later ones return from the memory
// tier. Hits in either tier resolve on the calling goroutine; only misses
// get a goroutine each, so they execute side by side under worker slots.
// (A goroutine per hit made a warm service job, all disk hits, measurably
// dearer in CPU.) Failed or cancelled runs are memoized in neither tier.
func (r *Runner) runAll(ctx context.Context, suite SuiteID, reqs []runReq) ([]pipeline.Result, []error) {
	res := make([]pipeline.Result, len(reqs))
	errs := make([]error, len(reqs))
	entries := make([]*cacheEntry, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		if err := r.stopped(ctx); err != nil {
			errs[i] = err
			continue
		}
		q := &reqs[i]
		e, owned := r.lookup(suite, q)
		entries[i] = e
		if owned {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.fill(ctx, suite, q.p, q.spec, e)
			}()
		}
	}
	wg.Wait()
	for i, e := range entries {
		if e == nil {
			continue
		}
		select {
		case <-e.done:
			res[i], errs[i] = e.res, e.err
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
	}
	return res, errs
}

// stopped reports why runAll must submit no further run: ctx ended, or a
// store-only Runner has already missed.
func (r *Runner) stopped(ctx context.Context) error {
	if r.missed.Load() {
		return ErrNotStored
	}
	return ctx.Err()
}

// keyLocked returns q's run key; r.mu must be held. The key is rendered
// (keyOf, a format of three structs and a hash) only the first time the
// Runner sees the run, with r.mu released meanwhile; after that it comes
// from r.keys, so a memo hit is one locked pair of map lookups. lookup and
// memoHits both find a run's entry through it.
func (r *Runner) keyLocked(q *runReq) runKey {
	id := q
	if q.spec.FlightWindow != 0 {
		u := *q
		u.spec.FlightWindow = 0
		id = &u
	}
	if key, ok := r.keys[*id]; ok {
		return key
	}
	r.mu.Unlock()
	key := keyOf(q.p, q.spec)
	r.mu.Lock()
	r.keys[*id] = key
	return key
}

// lookup resolves one run against the memo map and, on a miss, the
// persistent store. The store is read outside r.mu — duplicates wait on
// the entry as usual — and a hit fills the entry so later submissions are
// memory hits. It returns the run's entry and whether the caller owns it:
// an owned entry missed both tiers and the caller must fill it; any other
// entry is done or being filled by its owner. A store-only Runner owns no
// entry: a miss leaves the memo map and ends with ErrNotStored.
func (r *Runner) lookup(suite SuiteID, q *runReq) (*cacheEntry, bool) {
	r.mu.Lock()
	key := r.keyLocked(q)
	if e, ok := r.cache[key]; ok {
		r.stats.Hits++
		r.mu.Unlock()
		r.served(suite, q, TierMemory)
		return e, false
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	if r.store != nil {
		if res, ok := r.store.Get(key.String()); ok {
			e.res = res
			r.mu.Lock()
			r.stats.DiskHits++
			r.mu.Unlock()
			r.served(suite, q, TierDisk)
			close(e.done)
			return e, false
		}
	}
	if r.storeOnly {
		r.missed.Store(true)
		r.mu.Lock()
		delete(r.cache, key)
		r.mu.Unlock()
		e.err = ErrNotStored
		close(e.done)
		return e, false
	}
	return e, true
}

// memoHits answers a batch from the memo map alone, on the calling
// goroutine. When every run has a finished, successful entry it counts the
// hits, reports each (served) and returns the results in request order.
// Otherwise — a run is new, in flight or failed, or a store-only Runner has
// already missed — it returns nil having counted and reported nothing, and
// the batch is left to runAll.
func (r *Runner) memoHits(suite SuiteID, reqs []runReq) []pipeline.Result {
	if r.missed.Load() {
		return nil
	}
	var buf [4]*cacheEntry // a suite's batch is 2–4 runs; a miss allocates nothing
	entries := buf[:0]
	r.mu.Lock()
	for i := range reqs {
		e := r.cache[r.keyLocked(&reqs[i])]
		if e == nil || !e.finished() || e.err != nil {
			r.mu.Unlock()
			return nil
		}
		entries = append(entries, e)
	}
	r.stats.Hits += uint64(len(reqs))
	r.mu.Unlock()
	res := make([]pipeline.Result, len(reqs))
	for i, e := range entries {
		res[i] = e.res
		r.served(suite, &reqs[i], TierMemory)
	}
	return res
}

// finished reports whether the entry's res and err are final.
func (e *cacheEntry) finished() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// served reports a submission a cache tier answered: a run span annotated
// with the tier, and a PhaseCached event.
func (r *Runner) served(suite SuiteID, q *runReq, tier string) {
	if r.trace != nil {
		sp := r.beginRunSpan(suite, q.p.Name, &q.spec)
		r.trace.Annotate(sp, "cache", "hit")
		r.trace.Annotate(sp, "tier", tier)
		r.trace.End(sp)
	}
	if r.onEvent != nil {
		r.emit(ProgressEvent{Suite: suite, Benchmark: q.p.Name,
			Mechanism: mechLabel(q.spec), Phase: PhaseCached, CacheHit: true,
			Tier: tier})
	}
}

// fill executes an owned entry's simulation, memoizes a success in both
// tiers under the key lookup computed (a failure leaves the memo map, so a
// later submission retries) and releases the entry's waiters.
func (r *Runner) fill(ctx context.Context, suite SuiteID, p workload.Profile, spec RunSpec, e *cacheEntry) {
	e.res, e.err = r.execute(ctx, suite, p, spec)
	r.mu.Lock()
	if e.err != nil {
		delete(r.cache, e.key)
	} else {
		r.stats.Executed++
	}
	r.mu.Unlock()
	if e.err == nil && r.store != nil {
		r.store.Put(e.key.String(), e.res)
	}
	close(e.done)
}

// execute performs one unique simulation on the worker pool, isolating
// panics into errors. A run whose Outcome is not a completed one — the
// watchdog tripped, a self-check sweep failed, or the cycle cap was hit —
// comes back as an error too, so run() keeps it out of the memo cache and
// the suites keep it out of their aggregates; the failure is recorded for
// Errors(). Engine-wide cancellation is the one failure that is NOT
// recorded: it is the caller's doing, not the run's.
func (r *Runner) execute(ctx context.Context, suite SuiteID, p workload.Profile, spec RunSpec) (res pipeline.Result, err error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return pipeline.Result{}, ctx.Err()
	}
	defer func() { <-r.sem }()
	sp := r.beginRunSpan(suite, p.Name, &spec)
	defer func() {
		if err != nil {
			r.trace.Annotate(sp, "error", err.Error())
		}
		r.trace.End(sp)
	}()
	defer func() {
		if rec := recover(); rec != nil {
			r.mu.Lock()
			r.stats.Panics++
			r.mu.Unlock()
			err = fmt.Errorf("exp: run %s / %s panicked: %v", p.Name, mechLabel(spec), rec)
			r.recordError(RunError{Suite: suite, Benchmark: p.Name,
				Mechanism: mechLabel(spec), Outcome: "panic", Err: err})
		}
	}()
	r.emit(ProgressEvent{Suite: suite, Benchmark: p.Name,
		Mechanism: mechLabel(spec), Phase: PhaseRunStart})
	start := time.Now()
	w, err := workload.Generate(p)
	if err != nil {
		r.recordError(RunError{Suite: suite, Benchmark: p.Name,
			Mechanism: mechLabel(spec), Outcome: "generate", Err: err})
		return pipeline.Result{}, err
	}
	if r.testExec != nil {
		res = r.testExec(w, spec)
	} else {
		runCtx := ctx
		if r.timeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(ctx, r.timeout)
			defer cancel()
		}
		var onPhase func(string) func()
		if r.trace != nil && sp != trace.NoSpan {
			onPhase = func(name string) func() {
				ph := r.trace.Begin(sp, name)
				return func() { r.trace.End(ph) }
			}
		}
		var runErr error
		res, runErr = RunWorkloadObs(runCtx, w, spec, nil, onPhase)
		r.mu.Lock()
		r.stats.SkippedCycles += res.Stages.SkippedCycles
		r.stats.SkipSpans += res.Stages.SkipSpans
		r.mu.Unlock()
		if runErr != nil {
			if ctx.Err() != nil {
				return pipeline.Result{}, ctx.Err()
			}
			err = fmt.Errorf("exp: run %s / %s timed out after %v (%d cycles simulated)",
				p.Name, mechLabel(spec), r.timeout, res.Cycles)
			r.recordError(RunError{Suite: suite, Benchmark: p.Name,
				Mechanism: mechLabel(spec), Outcome: "timeout", Err: err})
			return res, err
		}
	}
	switch res.Outcome {
	case pipeline.OutcomeDeadlock, pipeline.OutcomeAuditFailed, pipeline.OutcomeCycleCapExceeded:
		msg := fmt.Sprintf("exp: run %s / %s ended %s after %d cycles",
			p.Name, mechLabel(spec), res.Outcome, res.Cycles)
		if res.Diag != "" {
			msg += "\n" + res.Diag
		}
		err = errors.New(msg)
		r.recordError(RunError{Suite: suite, Benchmark: p.Name,
			Mechanism: mechLabel(spec), Outcome: res.Outcome.String(), Err: err,
			Flight: res.Flight})
		return res, err
	}
	r.emit(ProgressEvent{Suite: suite, Benchmark: p.Name,
		Mechanism: mechLabel(spec), Phase: PhaseRunDone,
		Cycles: res.Cycles, Wall: time.Since(start)})
	return res, nil
}

// resolveProfiles maps benchmark names (all 22 when nil) to profiles.
func resolveProfiles(names []string) ([]workload.Profile, error) {
	if names == nil {
		names = workload.Names()
	}
	profiles := make([]workload.Profile, len(names))
	for i, name := range names {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("exp: unknown benchmark %q", name)
		}
		profiles[i] = p
	}
	return profiles, nil
}

// fanOut is every suite's fan-out over profiles. It runs each profile's
// batch, reqs(p), and hands the results and errors, in request order, to
// done(i, res, errs) with the profile's index i, so suites can aggregate in
// profile order (float sums taken in completion order would vary in their
// low bits with scheduling). A batch whose runs are all finished memo
// entries is answered on the calling goroutine (memoHits): a warm job
// starts no goroutine. Any other batch — a run to read from the store, to
// execute or to wait for in flight — gets a goroutine that takes runAll, so
// store reads and simulations of different profiles overlap (the worker
// pool bounds simulation) and a job of disk hits keeps its goroutine per
// profile. done may run on several goroutines at once, for different
// profiles. No profile starts after ctx ends; fanOut returns ctx.Err()
// once every goroutine has exited.
func (r *Runner) fanOut(ctx context.Context, suite SuiteID, profiles []workload.Profile,
	reqs func(p workload.Profile) []runReq, done func(i int, res []pipeline.Result, errs []error)) error {
	var wg sync.WaitGroup
	var none []error // a memo-answered batch's errs, all nil
	for i, p := range profiles {
		if ctx.Err() != nil {
			break
		}
		q := reqs(p)
		if res := r.memoHits(suite, q); res != nil {
			if len(none) < len(q) {
				none = make([]error, len(q))
			}
			done(i, res, none[:len(q)])
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, errs := r.runAll(ctx, suite, q)
			done(i, res, errs)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// profileRun is one profile's completed batch of runs.
type profileRun struct {
	p   workload.Profile
	res []pipeline.Result
}

// profileRuns runs each profile's batch, reqs(p), through fanOut and
// returns the completed batches in profile order, for the suite to
// aggregate in that order. A profile with a failed run is left out, so it
// has no row and is not counted in an average; the failure is already
// recorded for Errors(). When line is non-nil and someone listens, each
// completed profile emits a bench-done event carrying line(p, res). The
// error is non-nil only on cancellation.
func (r *Runner) profileRuns(ctx context.Context, suite SuiteID, profiles []workload.Profile,
	reqs func(p workload.Profile) []runReq, line func(p workload.Profile, res []pipeline.Result) string) ([]profileRun, error) {
	runs := make([]profileRun, len(profiles))
	err := r.fanOut(ctx, suite, profiles, reqs, func(i int, res []pipeline.Result, errs []error) {
		if errors.Join(errs...) != nil {
			return
		}
		p := &profiles[i]
		runs[i] = profileRun{*p, res}
		if line != nil && r.onEvent != nil {
			r.emit(ProgressEvent{Suite: suite, Benchmark: p.Name, Phase: PhaseBenchDone,
				Line: line(*p, res)})
		}
	})
	return slices.DeleteFunc(runs, func(pr profileRun) bool { return pr.res == nil }), err
}
