package exp

import (
	"context"
	"encoding/hex"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conspec/internal/core"
	"conspec/internal/mem"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// tinySpec is the smallest budget that still exercises the whole path;
// engine tests assert scheduling behavior, not statistical shape.
func tinySpec() RunSpec {
	s := DefaultSpec()
	s.Warmup = 2_000
	s.Measure = 8_000
	return s
}

func TestCacheKeyDeterminism(t *testing.T) {
	p, _ := workload.ByName("astar")
	spec := tinySpec()
	base := keyOf(p, spec)
	if base != keyOf(p, spec) {
		t.Fatal("identical inputs must produce identical keys")
	}

	mutations := map[string]func(*workload.Profile, *RunSpec){
		"core":        func(_ *workload.Profile, s *RunSpec) { s.Core.ROB++ },
		"mechanism":   func(_ *workload.Profile, s *RunSpec) { s.Sec.Mechanism = core.Baseline },
		"scope":       func(_ *workload.Profile, s *RunSpec) { s.Sec.Scope = core.ScopeBranchOnly },
		"icache":      func(_ *workload.Profile, s *RunSpec) { s.Sec.ICacheFilter = true },
		"dtlb":        func(_ *workload.Profile, s *RunSpec) { s.Sec.DTLBFilter = true },
		"l1d-policy":  func(_ *workload.Profile, s *RunSpec) { s.L1DUpdate = mem.UpdateNoSpec },
		"warmup":      func(_ *workload.Profile, s *RunSpec) { s.Warmup++ },
		"measure":     func(_ *workload.Profile, s *RunSpec) { s.Measure++ },
		"max-cycles":  func(_ *workload.Profile, s *RunSpec) { s.MaxCycles = 123 },
		"selfcheck":   func(_ *workload.Profile, s *RunSpec) { s.SelfCheck = 3 },
		"bench-name":  func(p *workload.Profile, _ *RunSpec) { p.Name = "astar2" },
		"bench-shape": func(p *workload.Profile, _ *RunSpec) { p.FenceAfterBranches = true },
	}
	for name, mutate := range mutations {
		mp, ms := p, spec
		mutate(&mp, &ms)
		if keyOf(mp, ms) == base {
			t.Errorf("%s: single-field change must change the cache key", name)
		}
	}
}

// TestRunKeysPinned pins the memo run key of one tiny spec under every
// registered defense. Stored results (the disk tier, a fleet's result
// store) are addressed by these keys, so a change to SecurityConfig, to a
// backend's Mechanism/SSBD identity or to keyOf's encoding must show up
// here rather than as a silently cold cache.
func TestRunKeysPinned(t *testing.T) {
	want := map[string]string{
		"origin":         "4ee03ded679de6e879dbc30e3c075a09e69923ad7493bc410fb863225912ca9e",
		"baseline":       "c8d033c6dfbb3b655d375f088a837aef717c22d627e585c8d86050feb0b14e00",
		"cachehit":       "9e423ce80f0f9ed85e7d99742182f643646f3c17bc588d00e12f343919a0f01f",
		"cachehit+tpbuf": "73de33a2ebb46b6576cd70d5a081ad8e4c8d77c8809d525bf486137f4f31ea34",
		"ssbd":           "dc01117f85b0a9c8c1c6dd7ef7204c446a20ea64ce6314acfa68cfc631e928cf",
		"fence":          "7dbc91bfc5e1234576fdeae6d49dd7848bbe33613cedc687723888118f3ca180",
		"delay-on-miss":  "7eabaa1e5aeb8023fd1ba290ce2b959e10568a040a9cbd8d432df054f2a2bc4b",
		"invisispec":     "64a621fbea6bddb21a65dad1ce8ecfdfccf2cc1aa86d268085fc6f2ddc641545",
	}
	p, _ := workload.ByName("astar")
	for _, d := range core.Defenses() {
		k := keyOf(p, withSec(tinySpec(), SecFor(d)))
		if got := hex.EncodeToString(k[:]); got != want[d.Name()] {
			t.Errorf("%s: run key %s, want %s", d.Name(), got, want[d.Name()])
		}
	}
	if len(want) != len(core.Defenses()) {
		t.Errorf("%d pinned keys for %d registered defenses", len(want), len(core.Defenses()))
	}
}

// TestMechLabel checks the progress-event label of a plain run is its
// backend's title (an SSBD run is not labelled Origin), and that the
// label — computed for every warm (memo-hit) run — looks its registry row
// up without allocating.
func TestMechLabel(t *testing.T) {
	for _, d := range core.Defenses() {
		spec := withSec(tinySpec(), SecFor(d))
		if got := mechLabel(spec); got != d.Title() {
			t.Errorf("%s: run labelled %q, want %q", d.Name(), got, d.Title())
		}
		if n := testing.AllocsPerRun(100, func() { _ = mechLabel(spec) }); n != 0 {
			t.Errorf("%s: mechLabel allocates %v times per call", d.Name(), n)
		}
	}
}

// TestCrossSuiteDedup submits overlapping work from three suites to one
// Runner and checks the scheduler executed each unique simulation once.
func TestCrossSuiteDedup(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	ctx := context.Background()
	spec := tinySpec()
	names := []string{"astar"}

	// fig5/table5: 4 mechanisms, all unique.
	if _, err := r.Evaluation(ctx, spec, names); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executed != 4 || st.Hits != 0 {
		t.Fatalf("after evaluation: %+v, want 4 executed / 0 hits", st)
	}

	// lru: Origin and CacheHitTPBuf+conventional-update are cache hits;
	// the no-update and delayed-update runs are new.
	if _, err := r.LRU(ctx, spec, names); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executed != 6 || st.Hits != 2 {
		t.Fatalf("after lru: %+v, want 6 executed / 2 hits", st)
	}

	// scope: Origin and the full-matrix Baseline are cache hits (the full
	// matrix is the default scope); branch-only is new.
	if _, err := r.Scope(ctx, spec, names); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executed != 7 || st.Hits != 4 {
		t.Fatalf("after scope: %+v, want 7 executed / 4 hits", st)
	}

	// Re-running a whole suite costs zero simulations.
	if _, err := r.Evaluation(ctx, spec, names); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executed != 7 || st.Hits != 8 {
		t.Fatalf("after re-evaluation: %+v, want 7 executed / 8 hits", st)
	}
}

// TestGoldenCachedMatchesUncached renders fig5 from a cold engine, a warm
// engine, and an independent fresh engine; all three must be byte-identical.
func TestGoldenCachedMatchesUncached(t *testing.T) {
	spec := tinySpec()
	names := []string{"astar", "lbm"}

	r := NewRunner(RunnerOptions{})
	cold, err := r.Evaluation(context.Background(), spec, names)
	if err != nil {
		t.Fatal(err)
	}
	executed := r.Stats().Executed
	warm, err := r.Evaluation(context.Background(), spec, names)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Executed != executed {
		t.Fatalf("warm evaluation executed %d new runs", r.Stats().Executed-executed)
	}
	if cold.Fig5Text() != warm.Fig5Text() {
		t.Error("cached fig5 text differs from uncached")
	}
	if cold.Table5Text() != warm.Table5Text() {
		t.Error("cached table5 text differs from uncached")
	}

	fresh, err := NewRunner(RunnerOptions{}).Evaluation(context.Background(), spec, names)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Fig5Text() != cold.Fig5Text() {
		t.Error("independent engine fig5 text differs from Runner output")
	}
}

func TestCancellationMidSuite(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRunner(RunnerOptions{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	r.onEvent = func(ev ProgressEvent) {
		if ev.Phase == PhaseRunDone && done.Add(1) == 1 {
			cancel()
		}
	}
	_, err := r.Evaluation(ctx, tinySpec(), []string{"astar", "lbm", "hmmer"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := r.Stats(); st.Submitted() >= 12 {
		t.Errorf("cancellation did not stop the suite: %+v", st)
	}
	// All suite goroutines are joined before Evaluation returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Errorf("goroutines leaked: %d before, %d after", before, got)
	}
}

func TestCancellationBeforeStart(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []SuiteID{SuiteFig5, SuiteTable4, SuiteTable6, SuiteScope,
		SuiteLRU, SuiteICache, SuiteDTLB, SuiteCompare} {
		if _, err := r.RunSuite(ctx, id, Options{Spec: tinySpec(), Benches: []string{"astar"}}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", id, err)
		}
	}
	if st := r.Stats(); st.Executed != 0 {
		t.Errorf("cancelled-before-start engine still executed %d runs", st.Executed)
	}
}

func TestPanicIsolation(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	r.testExec = func(w *workload.Workload, spec RunSpec) pipeline.Result {
		panic("boom")
	}
	ev, err := r.Evaluation(context.Background(), tinySpec(), []string{"astar"})
	if err != nil {
		t.Fatalf("suites must degrade gracefully past panicked runs, got %v", err)
	}
	if len(ev.Benches) != 1 || len(ev.Benches[0].Results) != 0 {
		t.Error("panicked runs must not contribute results")
	}
	if st := r.Stats(); st.Panics == 0 {
		t.Error("panic not counted")
	}
	errs := r.Errors()
	if len(errs) != 4 { // one per mechanism
		t.Fatalf("recorded %d errors, want 4: %+v", len(errs), errs)
	}
	for _, e := range errs {
		if e.Outcome != "panic" || e.Err == nil || !strings.Contains(e.Err.Error(), "panicked") {
			t.Errorf("unexpected error record: %+v", e)
		}
	}
	// Failed runs are not memoized: with the fault cleared the same spec
	// executes for real.
	r.testExec = nil
	if _, err := r.Evaluation(context.Background(), tinySpec(), []string{"astar"}); err != nil {
		t.Fatalf("engine did not recover after panic: %v", err)
	}
}

// TestFailedOutcomeDegradation: a run that ends in a non-completed outcome
// is excluded from the suite aggregates, recorded for Errors() with its
// diagnostic dump, kept out of the memo cache, and does not abort the rest
// of the suite.
func TestFailedOutcomeDegradation(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	var calls atomic.Int32
	r.testExec = func(w *workload.Workload, spec RunSpec) pipeline.Result {
		calls.Add(1)
		if spec.Sec.Mechanism == core.Baseline {
			return pipeline.Result{Cycles: 123,
				Outcome: pipeline.OutcomeDeadlock, Diag: "rob head: seq=7"}
		}
		return pipeline.Result{Cycles: 100, Committed: 100,
			Outcome: pipeline.OutcomeInstTarget}
	}
	ev, err := r.Evaluation(context.Background(), tinySpec(), []string{"astar"})
	if err != nil {
		t.Fatalf("suite must continue past failed runs: %v", err)
	}
	b := ev.Benches[0]
	if _, ok := b.Results[core.Baseline]; ok {
		t.Error("deadlocked run must not enter the aggregates")
	}
	if len(b.Results) != len(core.Mechanisms)-1 {
		t.Errorf("healthy runs missing: got %d results", len(b.Results))
	}
	errs := r.Errors()
	if len(errs) != 1 {
		t.Fatalf("recorded %d errors, want 1: %+v", len(errs), errs)
	}
	e := errs[0]
	if e.Outcome != "deadlock" || e.Suite != SuiteFig5 || e.Benchmark != "astar" {
		t.Errorf("bad error record: %+v", e)
	}
	if !strings.Contains(e.Err.Error(), "rob head") {
		t.Error("recorded error must carry the diagnostic dump")
	}
	if st := r.Stats(); st.Executed != 3 {
		t.Errorf("executed %d, want 3 (the failed run is not memoized)", st.Executed)
	}
	// Re-running the suite retries only the failed run; the healthy three
	// come from the cache.
	before := calls.Load()
	if _, err := r.Evaluation(context.Background(), tinySpec(), []string{"astar"}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load() - before; got != 1 {
		t.Errorf("re-run executed %d simulations, want 1", got)
	}
}

// TestRunTimeout: a per-run wall-clock timeout is a recorded failure, not a
// suite abort.
func TestRunTimeout(t *testing.T) {
	r := NewRunner(RunnerOptions{Timeout: time.Nanosecond})
	ev, err := r.Evaluation(context.Background(), tinySpec(), []string{"astar"})
	if err != nil {
		t.Fatalf("timeouts must degrade, not abort: %v", err)
	}
	if len(ev.Benches[0].Results) != 0 {
		t.Error("timed-out runs must not contribute results")
	}
	errs := r.Errors()
	if len(errs) == 0 {
		t.Fatal("timeout not recorded")
	}
	for _, e := range errs {
		if e.Outcome != "timeout" {
			t.Errorf("outcome %q, want timeout", e.Outcome)
		}
	}
}

// mapCache is an in-memory ResultCache standing in for the disk store.
type mapCache struct {
	mu   sync.Mutex
	m    map[string]pipeline.Result
	gets int
	puts int
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]pipeline.Result)} }

func (c *mapCache) Get(key string) (pipeline.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	res, ok := c.m[key]
	return res, ok
}

func (c *mapCache) Put(key string, res pipeline.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = res
}

// TestPersistentCacheTiers: a Runner with a ResultCache writes completed
// runs through, and a fresh Runner (a restarted process) replays the same
// evaluation entirely from the persistent tier — zero executions, with the
// cached events labelled by tier.
func TestPersistentCacheTiers(t *testing.T) {
	store := newMapCache()
	spec := tinySpec()
	names := []string{"astar"}

	cold := NewRunner(RunnerOptions{Cache: store})
	ev1, err := cold.Evaluation(context.Background(), spec, names)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.Executed != 4 || st.DiskHits != 0 {
		t.Fatalf("cold engine: %+v, want 4 executed / 0 disk hits", st)
	}
	if store.puts != 4 {
		t.Fatalf("store received %d puts, want 4", store.puts)
	}

	var tiers []string
	warm := NewRunner(RunnerOptions{Cache: store, OnEvent: func(ev ProgressEvent) {
		if ev.Phase == PhaseCached {
			tiers = append(tiers, ev.Tier)
		}
	}})
	ev2, err := warm.Evaluation(context.Background(), spec, names)
	if err != nil {
		t.Fatal(err)
	}
	st = warm.Stats()
	if st.Executed != 0 || st.DiskHits != 4 {
		t.Fatalf("warm engine: %+v, want 0 executed / 4 disk hits", st)
	}
	if st.Submitted() != 4 {
		t.Fatalf("Submitted() = %d, want 4", st.Submitted())
	}
	for _, tier := range tiers {
		if tier != TierDisk {
			t.Errorf("cached event tier %q, want %q", tier, TierDisk)
		}
	}
	if ev1.Fig5Text() != ev2.Fig5Text() {
		t.Error("disk-served fig5 text differs from executed run")
	}

	// A second pass on the warm engine is served by the memory tier.
	tiers = nil
	if _, err := warm.Evaluation(context.Background(), spec, names); err != nil {
		t.Fatal(err)
	}
	st = warm.Stats()
	if st.Hits != 4 || st.DiskHits != 4 || st.Executed != 0 {
		t.Fatalf("re-run on warm engine: %+v, want 4 memory hits", st)
	}
	for _, tier := range tiers {
		if tier != TierMemory {
			t.Errorf("cached event tier %q, want %q", tier, TierMemory)
		}
	}
}

// TestPersistentCacheSkipsFailedRuns: failed runs must stay out of the
// persistent tier just as they stay out of the memory tier.
func TestPersistentCacheSkipsFailedRuns(t *testing.T) {
	store := newMapCache()
	r := NewRunner(RunnerOptions{Cache: store})
	r.testExec = func(w *workload.Workload, spec RunSpec) pipeline.Result {
		return pipeline.Result{Cycles: 1, Outcome: pipeline.OutcomeDeadlock}
	}
	if _, err := r.Evaluation(context.Background(), tinySpec(), []string{"astar"}); err != nil {
		t.Fatal(err)
	}
	if store.puts != 0 {
		t.Errorf("failed runs were persisted: %d puts", store.puts)
	}
}

func TestRunSuiteUnknown(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	if _, err := r.RunSuite(context.Background(), SuiteID("nope"), Options{}); err == nil {
		t.Fatal("unknown suite must error")
	}
}

// TestSuitesNamed pins the suite-name expansion conspec-bench and serve
// share: "all" skips table5, table5 runs as fig5, and an unknown name
// errors listing every valid one.
func TestSuitesNamed(t *testing.T) {
	for name, want := range map[string][]SuiteID{
		"all": {SuiteFig5, SuiteTable4, SuiteTable6, SuiteScope, SuiteLRU, SuiteICache,
			SuiteDTLB, SuiteCompare, SuiteOverhead, SuiteDefenses},
		"fig5":     {SuiteFig5},
		"table5":   {SuiteFig5},
		"defenses": {SuiteDefenses},
	} {
		rows, err := SuitesNamed(name)
		var got []SuiteID
		for _, s := range rows {
			got = append(got, s.ID)
		}
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("SuitesNamed(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := SuitesNamed("bogus")
	if err == nil {
		t.Fatal("unknown suite must error")
	}
	for _, s := range Suites {
		for _, name := range []string{string(s.ID), s.Alias, "all"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list %q", err, name)
			}
		}
	}
}

// TestRunSuiteTypedGetters checks each suite routes to its typed result,
// and the table5 alias to the fig5 row.
func TestRunSuiteTypedGetters(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	opts := Options{Spec: tinySpec(), Benches: []string{"astar"}}
	ctx := context.Background()

	res, err := r.RunSuite(ctx, "table5", opts)
	if ev, ok := res.Value.(*Evaluation); err != nil || !ok || ev == nil || res.Suite != SuiteFig5 {
		t.Fatalf("table5: %v / %+v", err, res)
	}
	if !strings.Contains(res.Text(), "Average") || !strings.Contains(res.Text(), "TP:Mismatch") {
		t.Errorf("fig5 text must render Figure 5 and Table V:\n%s", res.Text())
	}
	res, err = r.RunSuite(ctx, SuiteLRU, opts)
	if lru, ok := res.Value.(*LRUResult); err != nil || !ok || lru == nil {
		t.Fatalf("lru: %v / %+v", err, res)
	}
	res, err = r.RunSuite(ctx, SuiteOverhead, opts)
	if err != nil || !strings.Contains(res.Text(), "TPBuf") {
		t.Fatalf("overhead: %v", err)
	}
	// fig5 + lru on one runner share the Origin and CacheHitTPBuf runs.
	if st := r.Stats(); st.Hits < 2 {
		t.Errorf("expected cross-suite cache hits, got %+v", st)
	}
}
