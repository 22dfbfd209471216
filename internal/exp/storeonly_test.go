package exp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"conspec/internal/core"
	"conspec/internal/mem"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// TestStoreOnlyNeverSimulates: a store-only Runner answers a suite its
// store holds exactly as a simulating Runner did, ends at the first run the
// store lacks with ErrNotStored, and refuses the suites that bypass the
// memo. Its testExec fails the test if anything reaches the simulator.
func TestStoreOnlyNeverSimulates(t *testing.T) {
	ctx := context.Background()
	opts := Options{Spec: tinySpec(), Benches: []string{"astar"}}
	store := newMapCache()

	cold := NewRunner(RunnerOptions{Cache: store})
	cold.testExec = func(w *workload.Workload, spec RunSpec) pipeline.Result {
		return pipeline.Result{Cycles: 10_000 + uint64(spec.L1DUpdate)*100 + uint64(spec.Sec.Mechanism), Committed: spec.Measure}
	}
	want, err := cold.RunSuite(ctx, SuiteLRU, opts)
	if err != nil {
		t.Fatalf("cold lru: %v", err)
	}

	storeOnly := func() *Runner {
		r := NewRunner(RunnerOptions{Cache: store, StoreOnly: true})
		r.testExec = func(*workload.Workload, RunSpec) pipeline.Result {
			t.Error("a store-only Runner simulated")
			return pipeline.Result{}
		}
		return r
	}

	// Every run stored: the suite resolves, all from the store.
	r := storeOnly()
	got, err := r.RunSuite(ctx, SuiteLRU, opts)
	if err != nil {
		t.Fatalf("warm lru: %v", err)
	}
	if !reflect.DeepEqual(got.Value, want.Value) {
		t.Fatalf("store-only lru = %+v, want %+v", got.Value, want.Value)
	}
	if st := r.Stats(); st.Executed != 0 || st.DiskHits != 4 || st.Submitted() != 4 {
		t.Fatalf("warm stats = %+v, want 4 disk hits and nothing executed", st)
	}

	// The suite's second run is missing: the lookup stops there.
	p, _ := workload.ByName("astar")
	missing := withSec(opts.Spec, pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf})
	missing.L1DUpdate = mem.UpdateAlways
	store.mu.Lock()
	delete(store.m, keyOf(p, missing).String())
	store.gets = 0
	store.mu.Unlock()
	r = storeOnly()
	if _, err := r.RunSuite(ctx, SuiteLRU, opts); !errors.Is(err, ErrNotStored) {
		t.Fatalf("lru with a run missing: err = %v, want ErrNotStored", err)
	}
	if store.gets != 2 {
		t.Errorf("store reads = %d, want 2 (no lookup after the first miss)", store.gets)
	}
	if st := r.Stats(); st.Executed != 0 || len(r.Errors()) != 0 {
		t.Errorf("after a miss: stats %+v, errors %v; want nothing executed or failed", st, r.Errors())
	}
	// A Runner that missed answers nothing more, even what the store holds.
	if _, err := r.RunSuite(ctx, SuiteLRU, Options{Spec: opts.Spec, Benches: []string{"astar"}}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("second suite after a miss: err = %v, want ErrNotStored", err)
	}

	// fig5 swallows a failed run into its aggregates; a miss still fails it.
	r = storeOnly()
	if _, err := r.RunSuite(ctx, SuiteFig5, opts); !errors.Is(err, ErrNotStored) {
		t.Fatalf("fig5 never stored: err = %v, want ErrNotStored", err)
	}

	// A suite whose row is not Stored works outside the memo (table4's
	// attacks, the defenses verdicts): refused outright.
	r = storeOnly()
	refused := 0
	for _, s := range Suites {
		if s.Stored {
			continue
		}
		refused++
		if _, err := r.RunSuite(ctx, s.ID, Options{Spec: opts.Spec, Benches: opts.Benches, Defenses: []string{"fence"}}); !errors.Is(err, ErrNotStored) {
			t.Fatalf("%s: err = %v, want ErrNotStored", s.ID, err)
		}
	}
	if refused != 2 {
		t.Errorf("%d suites are not Stored, want 2 (table4, defenses)", refused)
	}
	// The drivers refuse on their own when called directly, before any
	// attack starts.
	if _, err := r.Defenses(ctx, opts.Spec, opts.Benches, []string{"fence"}, opts.attackCore()); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Defenses: err = %v, want ErrNotStored", err)
	}
	if _, err := r.Table4(ctx, opts.attackCore()); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Table4: err = %v, want ErrNotStored", err)
	}
	if st := r.Stats(); st.Submitted() != 0 {
		t.Fatalf("refused suites submitted runs: %+v", st)
	}
}
