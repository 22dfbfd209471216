package exp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// TestWarmDefensesAllocs: a warm defenses job — every overhead run a
// finished memo entry, every verdict memoized — is answered on the caller,
// without a goroutine or a result slice per profile beyond the one it
// returns. The bound is per run hit, over all 22 profiles and 8 backends.
func TestWarmDefensesAllocs(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	fakeRuns(r)
	countAttacks(r, true)
	ctx := context.Background()
	acfg := slimAttackCore()
	if _, err := r.Defenses(ctx, tinySpec(), nil, nil, acfg); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		_, err = r.Defenses(ctx, tinySpec(), nil, nil, acfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Executed != before.Executed {
		t.Fatalf("warm jobs executed %d runs", st.Executed-before.Executed)
	}
	hits := len(workload.Names()) * len(core.Defenses()) * 2
	if per := allocs / float64(hits); per > 2 {
		t.Errorf("warm defenses job: %.0f allocations for %d run hits, %.2f per hit; want at most 2", allocs, hits, per)
	}
}

// goid names the calling goroutine, from the header of its stack trace.
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// TestMixedJobOnCaller submits a compare job over four profiles: two warm,
// one with a run held in flight by an earlier submission, one cold. The
// warm profiles are answered on the calling goroutine; the in-flight one
// waits for the coalesced run; rows come back in profile order, the Stats
// count what a goroutine per profile counted, and every profile's
// bench-done fires once.
func TestMixedJobOnCaller(t *testing.T) {
	type seen struct {
		ev ProgressEvent
		g  string
	}
	var mu sync.Mutex
	var events []seen
	coldDone := make(chan struct{})
	r := NewRunner(RunnerOptions{Workers: 2, OnEvent: func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, seen{ev, goid()})
		mu.Unlock()
		if ev.Phase == PhaseBenchDone && ev.Benchmark == "hmmer" {
			close(coldDone)
		}
	}})
	started, release := make(chan struct{}), make(chan struct{})
	r.testExec = func(w *workload.Workload, spec RunSpec) pipeline.Result {
		cycles := 1000 + 10*uint64(spec.Sec.Mechanism)
		if w.Profile.FenceAfterBranches {
			cycles += 7
		}
		if w.Profile.Name == "mcf" && spec.Sec.Mechanism == core.InvisiSpec {
			close(started)
			<-release
			cycles = 4321
		}
		return pipeline.Result{Cycles: cycles, Committed: 100, Outcome: pipeline.OutcomeInstTarget}
	}
	ctx := context.Background()
	spec := tinySpec()
	if _, err := r.Compare(ctx, spec, []string{"astar", "lbm"}); err != nil {
		t.Fatal(err)
	}
	mcf, _ := workload.ByName("mcf")
	holder := make(chan []error)
	go func() {
		_, errs := r.runAll(ctx, SuiteCompare, []runReq{{mcf, withSec(spec, pipeline.SecurityConfig{Mechanism: core.InvisiSpec})}})
		holder <- errs
	}()
	<-started
	mu.Lock()
	events = nil
	mu.Unlock()
	before := r.Stats()

	type outcome struct {
		res *CompareResult
		err error
		g   string
	}
	job := make(chan outcome, 1)
	go func() {
		g := goid()
		res, err := r.Compare(ctx, spec, []string{"astar", "mcf", "lbm", "hmmer"})
		job <- outcome{res, err, g}
	}()
	select {
	case <-coldDone:
	case <-time.After(30 * time.Second):
		t.Fatal("the cold profile never completed")
	}
	select {
	case o := <-job:
		t.Fatalf("job returned (%v) while a run it coalesced onto was in flight", o.err)
	default:
	}
	close(release)
	var o outcome
	select {
	case o = <-job:
	case <-time.After(30 * time.Second):
		t.Fatal("job did not return after the in-flight run finished")
	}
	if errs := <-holder; errors.Join(errs...) != nil {
		t.Fatal(errs)
	}
	if o.err != nil {
		t.Fatal(o.err)
	}

	var names []string
	for _, row := range o.res.Rows {
		names = append(names, row.Benchmark)
	}
	if want := []string{"astar", "mcf", "lbm", "hmmer"}; !reflect.DeepEqual(names, want) {
		t.Errorf("rows %v, want profile order %v", names, want)
	}
	if got, want := o.res.Rows[1].Invisi, float64(4321)/1000-1; got != want {
		t.Errorf("mcf invisispec overhead %v, want %v from the coalesced run", got, want)
	}
	// astar and lbm: 4 hits each; mcf: 1 coalesced hit, 3 executed; hmmer:
	// 4 executed; and the held run, executed once released.
	st := r.Stats()
	if hits, executed := st.Hits-before.Hits, st.Executed-before.Executed; hits != 9 || executed != 8 {
		t.Errorf("job counted %d hits and %d executed, want 9 and 8", hits, executed)
	}

	mu.Lock()
	defer mu.Unlock()
	done := map[string]int{}
	for _, e := range events {
		if e.ev.Phase != PhaseBenchDone {
			continue
		}
		done[e.ev.Benchmark]++
		warm := e.ev.Benchmark == "astar" || e.ev.Benchmark == "lbm"
		if warm && e.g != o.g {
			t.Errorf("%s (warm) reported on goroutine %s, not the caller's %s", e.ev.Benchmark, e.g, o.g)
		}
	}
	if want := map[string]int{"astar": 1, "mcf": 1, "lbm": 1, "hmmer": 1}; !reflect.DeepEqual(done, want) {
		t.Errorf("bench-done events per profile %v, want %v", done, want)
	}
}

// TestCallerPathStopsLikeRunAll: a memo-answered profile obeys the same
// stops as runAll. A store-only Runner that has missed answers nothing
// more, memo entries included, and counts nothing; a cancelled ctx ends a
// warm job with context.Canceled before or between profiles, without
// answering the rest.
func TestCallerPathStopsLikeRunAll(t *testing.T) {
	ctx := context.Background()
	opts := Options{Spec: tinySpec(), Benches: []string{"astar"}}
	store := newMapCache()
	cold := NewRunner(RunnerOptions{Cache: store})
	fakeRuns(cold)
	want, err := cold.RunSuite(ctx, SuiteLRU, opts)
	if err != nil {
		t.Fatal(err)
	}

	var events []ProgressEvent
	r := NewRunner(RunnerOptions{Cache: store, StoreOnly: true,
		OnEvent: func(ev ProgressEvent) { events = append(events, ev) }})
	r.testExec = func(*workload.Workload, RunSpec) pipeline.Result {
		t.Error("a store-only Runner simulated")
		return pipeline.Result{}
	}
	for pass, tier := range []string{TierDisk, TierMemory} {
		events = nil
		got, err := r.RunSuite(ctx, SuiteLRU, opts)
		if err != nil || !reflect.DeepEqual(got.Value, want.Value) {
			t.Fatalf("pass %d: %+v, %v; want %+v", pass, got.Value, err, want.Value)
		}
		for _, ev := range events {
			if ev.Phase == PhaseCached && ev.Tier != tier {
				t.Errorf("pass %d: %s served from %s, want %s", pass, ev.Mechanism, ev.Tier, tier)
			}
		}
	}
	if st := r.Stats(); st.DiskHits != 4 || st.Hits != 4 {
		t.Fatalf("stats %+v, want 4 disk hits then 4 memory hits", st)
	}
	if _, err := r.RunSuite(ctx, SuiteLRU, Options{Spec: opts.Spec, Benches: []string{"lbm"}}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("unstored lbm: err = %v, want ErrNotStored", err)
	}
	before := r.Stats()
	events = nil
	if _, err := r.RunSuite(ctx, SuiteLRU, opts); !errors.Is(err, ErrNotStored) {
		t.Fatalf("memoized astar after a miss: err = %v, want ErrNotStored", err)
	}
	if st := r.Stats(); st != before || len(events) != 0 {
		t.Errorf("after a miss: stats %+v → %+v, %d events; want nothing answered", before, st, len(events))
	}

	// Cancellation on a warm Runner.
	w := NewRunner(RunnerOptions{})
	fakeRuns(w)
	names := []string{"astar", "lbm", "mcf"}
	if _, err := w.Evaluation(ctx, tinySpec(), names); err != nil {
		t.Fatal(err)
	}
	before = w.Stats()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	events = nil
	w.onEvent = func(ev ProgressEvent) { events = append(events, ev) }
	if _, err := w.Evaluation(cctx, tinySpec(), names); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled warm evaluation: err = %v", err)
	}
	if _, err := w.Compare(cctx, tinySpec(), names); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled warm compare: err = %v", err)
	}
	if st := w.Stats(); st != before || len(events) != 0 {
		t.Errorf("cancelled before start: stats %+v → %+v, %d events", before, st, len(events))
	}
	cctx, cancel = context.WithCancel(ctx)
	defer cancel()
	w.onEvent = func(ev ProgressEvent) {
		if ev.Phase == PhaseBenchDone {
			cancel()
		}
	}
	ev, err := w.Evaluation(cctx, tinySpec(), names)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("warm evaluation cancelled mid-job: err = %v", err)
	}
	if st := w.Stats(); st.Hits != before.Hits+uint64(len(core.Mechanisms)) {
		t.Errorf("cancelled after the first profile: %d hits, want %d", st.Hits-before.Hits, len(core.Mechanisms))
	}
	if len(ev.Benches[0].Results) != len(core.Mechanisms) || len(ev.Benches[1].Results) != 0 {
		t.Errorf("cancelled after the first profile: results %d, %d", len(ev.Benches[0].Results), len(ev.Benches[1].Results))
	}
}
