package exp

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"
	"time"

	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// spreadExec stands in for the simulator: each (profile, configuration)
// gets a cycle count hashed from its inputs, spread over three orders of
// magnitude, so the suites' overheads differ wildly in size and a float sum
// of them depends on the order it is taken in. With reverse set, a
// profile's runs take longer the earlier it comes in the suite, so later
// profiles tend to complete first.
func spreadExec(reverse bool) func(w *workload.Workload, spec RunSpec) pipeline.Result {
	order := map[string]int{}
	for i, name := range workload.Names() {
		order[name] = i
	}
	return func(w *workload.Workload, spec RunSpec) pipeline.Result {
		if reverse {
			time.Sleep(time.Duration(len(order)-order[w.Profile.Name]) * 200 * time.Microsecond)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%s %+v %d %v", w.Profile.Name, spec.Sec, spec.L1DUpdate, w.Profile.FenceAfterBranches)
		return pipeline.Result{Cycles: 1000 + h.Sum64()%1_000_003, Committed: 100,
			Outcome: pipeline.OutcomeInstTarget}
	}
}

// TestSuiteAveragesIndependentOfCompletionOrder: every suite that averages
// across profiles sums in profile order, so its result is bit-identical
// whatever order the runs complete in — here a one-worker run in suite
// order against a two-worker run whose completion order is roughly
// reversed.
func TestSuiteAveragesIndependentOfCompletionOrder(t *testing.T) {
	acfg := Options{}.attackCore()
	suites := map[string]func(r *Runner) (any, error){
		"scope":   func(r *Runner) (any, error) { return r.Scope(context.Background(), tinySpec(), nil) },
		"lru":     func(r *Runner) (any, error) { return r.LRU(context.Background(), tinySpec(), nil) },
		"icache":  func(r *Runner) (any, error) { return r.ICache(context.Background(), tinySpec(), nil) },
		"dtlb":    func(r *Runner) (any, error) { return r.DTLB(context.Background(), tinySpec(), nil) },
		"compare": func(r *Runner) (any, error) { return r.Compare(context.Background(), tinySpec(), nil) },
		"defenses": func(r *Runner) (any, error) {
			return r.Defenses(context.Background(), tinySpec(), nil, []string{"origin", "tpbuf"}, acfg)
		},
	}
	for name, run := range suites {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := NewRunner(RunnerOptions{Workers: 1})
			ref.testExec = spreadExec(false)
			want, err := run(ref)
			if err != nil {
				t.Fatal(err)
			}
			rev := NewRunner(RunnerOptions{Workers: 2})
			rev.testExec = spreadExec(true)
			got, err := run(rev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("two-worker reversed result differs from the one-worker result:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestRunAllExecutesMissesConcurrently: a batch's misses run side by side
// on the worker pool, not one after another, and come back in request
// order; resubmitting the batch is served entirely from the memo.
func TestRunAllExecutesMissesConcurrently(t *testing.T) {
	const n = 3
	r := NewRunner(RunnerOptions{Workers: n})
	var started sync.WaitGroup
	started.Add(n)
	r.testExec = func(w *workload.Workload, spec RunSpec) pipeline.Result {
		started.Done()
		started.Wait() // returns only once all n runs are executing at once
		return pipeline.Result{Cycles: 100 + spec.Measure, Outcome: pipeline.OutcomeInstTarget}
	}
	p, _ := workload.ByName("astar")
	var reqs []runReq
	for i := 0; i < n; i++ {
		s := tinySpec()
		s.Measure += uint64(i)
		reqs = append(reqs, runReq{p, s})
	}
	done := make(chan struct{})
	var res []pipeline.Result
	var errs []error
	go func() {
		defer close(done)
		res, errs = r.runAll(context.Background(), SuiteFig5, reqs)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("runAll executed its misses one at a time")
	}
	for i := range reqs {
		if errs[i] != nil || res[i].Cycles != 100+reqs[i].spec.Measure {
			t.Errorf("request %d: %+v, %v", i, res[i], errs[i])
		}
	}
	again, errs := r.runAll(context.Background(), SuiteFig5, reqs)
	if st := r.Stats(); st.Executed != n || st.Hits != n {
		t.Errorf("stats after a resubmitted batch: %+v, want %d executed and %d hits", st, n, n)
	}
	if !reflect.DeepEqual(again, res) || errors.Join(errs...) != nil {
		t.Errorf("resubmitted batch: %+v, %v", again, errs)
	}
}
