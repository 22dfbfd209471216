package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/pipeline"
)

// TestCapacityOverride: Config.Capacity replaces the static worker count
// in Retry-After math, degrading to 1 for an empty fleet.
func TestCapacityOverride(t *testing.T) {
	n := 0
	s := New(Config{Workers: 4, Capacity: func() int { return n }})
	defer s.Close()
	if got := s.capacity(); got != 1 {
		t.Fatalf("empty fleet capacity = %d, want the 1 floor", got)
	}
	n = 12
	if got := s.capacity(); got != 12 {
		t.Fatalf("capacity = %d, want the live 12", got)
	}

	s2 := New(Config{Workers: 4})
	defer s2.Close()
	if got := s2.capacity(); got != 4 {
		t.Fatalf("static capacity = %d, want Workers=4", got)
	}
}

// fleetishExecutor implements Executor like the fleet coordinator does:
// it reports a worker id, emits progress, and returns a report.
type fleetishExecutor struct{}

func (fleetishExecutor) Execute(ctx context.Context, job ExecJob) (*report.Report, exp.Stats, int, error) {
	if job.SetWorker != nil {
		job.SetWorker("w-test")
	}
	if job.Emit != nil {
		job.Emit(exp.ProgressEvent{Suite: exp.SuiteID(job.Spec.Suite), Benchmark: "fake", Mechanism: "fake", Phase: exp.PhaseRunDone})
	}
	return report.New(), exp.Stats{Executed: 1}, 0, nil
}

// TestExecutorSeamCarriesWorker: a Config.Executor backend executes jobs,
// and the worker it reports surfaces in GET /v1/jobs/{id} and the list —
// satellite 2's worker field.
func TestExecutorSeamCarriesWorker(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Executor: fleetishExecutor{}}, nil)

	st := submit(t, ts.URL, JobSpec{Suite: "lru"})
	final := waitStatus(t, ts.URL, st.ID, StatusDone)
	if final.Worker != "w-test" {
		t.Fatalf("job worker = %q, want w-test", final.Worker)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list) != 1 || list[0].Worker != "w-test" {
		t.Fatalf("list = %+v, want one job on w-test", list)
	}
}

// readFailCache fails the test on any store access.
type readFailCache struct{ t *testing.T }

func (c readFailCache) Get(key string) (pipeline.Result, bool) {
	c.t.Errorf("store read %s", key)
	return pipeline.Result{}, false
}

func (c readFailCache) Put(key string, _ pipeline.Result) { c.t.Errorf("store write %s", key) }

// TestStoreOnlyRefusesUnstoredSuitesUpFront: a store-only spec containing
// table4 or defenses, whose work is never stored, fails with
// exp.ErrNotStored before its other suites read the store.
func TestStoreOnlyRefusesUnstoredSuitesUpFront(t *testing.T) {
	for _, suite := range []string{"all", "table4", "defenses"} {
		js := JobSpec{Suite: suite, Benches: []string{"astar"}, Warmup: 2000, Measure: 8000}
		_, st, _, err := ExecuteSpec(context.Background(), js,
			ExecOptions{Cache: readFailCache{t}, StoreOnly: true}, nil)
		if !errors.Is(err, exp.ErrNotStored) || st.Submitted() != 0 {
			t.Errorf("suite %s: err %v, stats %+v; want ErrNotStored before any run", suite, err, st)
		}
	}
}
