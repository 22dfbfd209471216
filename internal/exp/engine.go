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
	keys       map[runID]runKey // each run's key, rendered once (keyOf)
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
		keys:       make(map[runID]runKey),
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
func (r *Runner) beginRunSpan(suite SuiteID, p workload.Profile, spec RunSpec) trace.SpanID {
	if r.trace == nil {
		return trace.NoSpan
	}
	sp := r.trace.Begin(r.suiteSpan(suite), "run:"+p.Name)
	r.trace.Annotate(sp, "mechanism", mechLabel(spec))
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

// runID is a run's identity as Go compares it: the profile and the spec
// with its observation-only FlightWindow zeroed, the inputs keyOf renders.
// Two IDs are equal exactly when their keys are, except for a float field
// holding -0 or NaN, which no registered profile or suite variant has.
type runID struct {
	p    workload.Profile
	spec RunSpec
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

// runReq is one simulation a suite asks the Runner for.
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
	for i, q := range reqs {
		if err := r.stopped(ctx); err != nil {
			errs[i] = err
			continue
		}
		e, owned := r.lookup(suite, q.p, q.spec)
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

// lookup resolves one run against the memo map and, on a miss, the
// persistent store. The store is read outside r.mu — duplicates wait on
// the entry as usual — and a hit fills the entry so later submissions are
// memory hits. It returns the run's entry and whether the caller owns it:
// an owned entry missed both tiers and the caller must fill it; any other
// entry is done or being filled by its owner. A store-only Runner owns no
// entry: a miss leaves the memo map and ends with ErrNotStored. The run's
// key is rendered (keyOf, a format of three structs and a hash) only the
// first time the Runner sees the run, outside r.mu; after that it comes
// from r.keys, so a memo hit is one locked pair of map lookups.
func (r *Runner) lookup(suite SuiteID, p workload.Profile, spec RunSpec) (*cacheEntry, bool) {
	id := runID{p, spec}
	id.spec.FlightWindow = 0
	r.mu.Lock()
	key, ok := r.keys[id]
	if !ok {
		r.mu.Unlock()
		key = keyOf(p, spec)
		r.mu.Lock()
		r.keys[id] = key
	}
	if e, ok := r.cache[key]; ok {
		r.stats.Hits++
		r.mu.Unlock()
		r.served(suite, p, spec, TierMemory)
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
			r.served(suite, p, spec, TierDisk)
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

// served reports a submission a cache tier answered: a run span annotated
// with the tier, and a PhaseCached event.
func (r *Runner) served(suite SuiteID, p workload.Profile, spec RunSpec, tier string) {
	sp := r.beginRunSpan(suite, p, spec)
	r.trace.Annotate(sp, "cache", "hit")
	r.trace.Annotate(sp, "tier", tier)
	r.trace.End(sp)
	r.emit(ProgressEvent{Suite: suite, Benchmark: p.Name,
		Mechanism: mechLabel(spec), Phase: PhaseCached, CacheHit: true,
		Tier: tier})
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
	sp := r.beginRunSpan(suite, p, spec)
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

// suiteErr filters one run's error at suite level: a failed run is already
// recorded for Errors(), so the suite continues without it (nil); only
// engine-wide cancellation propagates and aborts the suite.
func suiteErr(ctx context.Context, err error) error {
	if err == nil || ctx.Err() != nil {
		return err
	}
	return nil
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

// eachProfile fans fn out across profiles, one goroutine per profile (the
// Runner's worker pool bounds actual simulation concurrency), joins them
// all, and returns ctx.Err() on cancellation or the first fn error
// otherwise. fn gets the profile's index, so suites can keep per-profile
// values in slices and aggregate them in profile order afterwards — float
// sums taken in completion order would vary in their low bits with
// scheduling. All goroutines have exited by the time it returns.
func (r *Runner) eachProfile(ctx context.Context, profiles []workload.Profile, fn func(i int, p workload.Profile) error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, p := range profiles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			if err := fn(i, p); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// profileRun is one profile's completed batch of runs.
type profileRun struct {
	p   workload.Profile
	res []pipeline.Result
}

// profileRuns runs each profile's batch, reqs(p), through runAll, one
// profile per goroutine, and returns the completed batches in profile
// order, for the suite to aggregate in that order. A profile with a failed
// run is left out, so it has no row and is not counted in an average; the
// failure is already recorded for Errors(). When line is non-nil, each
// completed profile emits a bench-done event carrying line(p, res). The
// error is non-nil only on cancellation.
func (r *Runner) profileRuns(ctx context.Context, suite SuiteID, profiles []workload.Profile,
	reqs func(p workload.Profile) []runReq, line func(p workload.Profile, res []pipeline.Result) string) ([]profileRun, error) {
	runs := make([]profileRun, len(profiles))
	err := r.eachProfile(ctx, profiles, func(i int, p workload.Profile) error {
		res, errs := r.runAll(ctx, suite, reqs(p))
		if err := errors.Join(errs...); err != nil {
			return suiteErr(ctx, err)
		}
		runs[i] = profileRun{p, res}
		if line != nil {
			r.emit(ProgressEvent{Suite: suite, Benchmark: p.Name, Phase: PhaseBenchDone,
				Line: line(p, res)})
		}
		return nil
	})
	return slices.DeleteFunc(runs, func(pr profileRun) bool { return pr.res == nil }), err
}
