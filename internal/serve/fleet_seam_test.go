package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/pipeline"
)

// fakeLimiter denies every client after the first n submissions.
type fakeLimiter struct {
	mu    sync.Mutex
	allow int
	seen  []string
}

func (f *fakeLimiter) Allow(client string) (bool, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen = append(f.seen, client)
	if f.allow > 0 {
		f.allow--
		return true, 0
	}
	return false, 7 * time.Second
}

// TestSubmitLimiter429: a Config.Limiter denial turns into 429 with the
// limiter's Retry-After and a jobs_throttled_total increment, keyed by the
// X-Conspec-Client header.
func TestSubmitLimiter429(t *testing.T) {
	fake := newFakeExec()
	lim := &fakeLimiter{allow: 1}
	_, ts := newTestServer(t, Config{Workers: 1, Limiter: lim}, fake)

	body, _ := json.Marshal(JobSpec{Suite: "lru"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Conspec-Client", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
	}
	<-fake.started

	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Conspec-Client", "alice")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the limiter's 7", ra)
	}

	lim.mu.Lock()
	seen := append([]string(nil), lim.seen...)
	lim.mu.Unlock()
	if len(seen) != 2 || seen[0] != "alice" || seen[1] != "alice" {
		t.Fatalf("limiter saw clients %v, want [alice alice]", seen)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mb, []byte("conspec_served_jobs_throttled_total 1")) {
		t.Fatalf("metrics missing throttle counter:\n%s", mb)
	}
	fake.releaseAll(1)
}

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
