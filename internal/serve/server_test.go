package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conspec/internal/diskcache"
	"conspec/internal/exp"
	"conspec/internal/exp/report"
)

// execFunc adapts a function to Executor.
type execFunc func(ctx context.Context, job ExecJob) (*report.Report, exp.Stats, int, error)

func (f execFunc) Execute(ctx context.Context, job ExecJob) (*report.Report, exp.Stats, int, error) {
	return f(ctx, job)
}

// fakeExec is an Executor standing in for the local one, controllable.
type fakeExec struct {
	mu      sync.Mutex
	started chan string   // receives job ids as they begin executing
	release chan struct{} // each receive lets one exec return
	running int32
	maxSeen int32
	stats   exp.Stats
	err     error
}

func newFakeExec() *fakeExec {
	return &fakeExec{
		started: make(chan string, 64),
		release: make(chan struct{}, 64),
	}
}

func (f *fakeExec) Execute(ctx context.Context, j ExecJob) (*report.Report, exp.Stats, int, error) {
	n := atomic.AddInt32(&f.running, 1)
	defer atomic.AddInt32(&f.running, -1)
	for {
		old := atomic.LoadInt32(&f.maxSeen)
		if n <= old || atomic.CompareAndSwapInt32(&f.maxSeen, old, n) {
			break
		}
	}
	f.started <- j.ID
	j.Emit(exp.ProgressEvent{Suite: exp.SuiteID(j.Spec.Suite), Benchmark: "fake", Mechanism: "fake", Phase: exp.PhaseRunStart})
	select {
	case <-f.release:
	case <-ctx.Done():
		return nil, exp.Stats{}, 0, ctx.Err()
	}
	if f.err != nil {
		return nil, exp.Stats{}, 0, f.err
	}
	j.Emit(exp.ProgressEvent{Suite: exp.SuiteID(j.Spec.Suite), Benchmark: "fake", Mechanism: "fake", Phase: exp.PhaseRunDone})
	return report.New(), f.stats, 0, nil
}

// releaseAll lets n pending execs finish.
func (f *fakeExec) releaseAll(n int) {
	for i := 0; i < n; i++ {
		f.release <- struct{}{}
	}
}

func newTestServer(t *testing.T, cfg Config, fake *fakeExec) (*Server, *httptest.Server) {
	t.Helper()
	if fake != nil {
		cfg.Executor = fake
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, base string, spec JobSpec) JobStatus {
	t.Helper()
	st, code := trySubmit(t, base, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func trySubmit(t *testing.T, base string, spec JobSpec) (JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("submit decode: %v", err)
		}
	}
	return st, resp.StatusCode
}

func getJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("get decode: %v", err)
	}
	return st
}

func waitStatus(t *testing.T, base, id string, want Status) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, base, id)
		if st.Status == want {
			return st
		}
		if st.Status.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.Status, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// readSSE consumes one SSE stream to completion, returning the decoded
// events in order.
func readSSE(t *testing.T, body io.Reader) []Event {
	t.Helper()
	var events []Event
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	return events
}

// tinySpec keeps real-simulation tests fast (< a few seconds).
func tinySpec(suite string) JobSpec {
	return JobSpec{Suite: suite, Benches: []string{"astar"}, Warmup: 2000, Measure: 8000}
}

func TestSubmitStreamResult(t *testing.T) {
	fake := newFakeExec()
	fake.stats = exp.Stats{Executed: 4}
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4}, fake)

	st := submit(t, ts.URL, JobSpec{Suite: "lru"})
	if st.Status != StatusQueued && st.Status != StatusRunning {
		t.Fatalf("initial status %s", st.Status)
	}

	// Attach the event stream while the job is live.
	<-fake.started
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	fake.releaseAll(1)
	events := readSSE(t, resp.Body)

	if len(events) < 4 {
		t.Fatalf("got %d events, want >= 4: %+v", len(events), events)
	}
	if events[0].Type != "state" || events[0].Status != StatusQueued {
		t.Fatalf("first event %+v, want queued state", events[0])
	}
	last := events[len(events)-1]
	if !last.Terminal() || last.Status != StatusDone {
		t.Fatalf("last event %+v, want done state", last)
	}
	var progress int
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == "progress" {
			progress++
			if ev.Progress == nil {
				t.Fatalf("progress event without payload: %+v", ev)
			}
		}
	}
	if progress != 2 {
		t.Fatalf("got %d progress events, want 2", progress)
	}

	done := getJob(t, ts.URL, st.ID)
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("GET after done: status %s, result nil=%v", done.Status, done.Result == nil)
	}
	if done.Engine == nil || done.Engine.Executed != 4 {
		t.Fatalf("engine stats %+v, want executed 4", done.Engine)
	}
}

func TestSSEReplayAfterCompletion(t *testing.T) {
	fake := newFakeExec()
	_, ts := newTestServer(t, Config{Workers: 1}, fake)
	st := submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started
	fake.releaseAll(1)
	waitStatus(t, ts.URL, st.ID, StatusDone)

	// A subscriber arriving after the fact still gets the full history and
	// a stream that terminates on its own.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) == 0 || !events[len(events)-1].Terminal() {
		t.Fatalf("replayed stream did not end with terminal event: %+v", events)
	}
}

// A watcher that reads nothing while its job publishes megabytes of events
// still gets every one of them, in order, and the terminal frame: streams
// read the shared history through a cursor, so there is no per-watcher
// buffer to overflow and no cut-off.
func TestSSEStalledWatcherGetsEveryEvent(t *testing.T) {
	const n = 1 << 14 // about 4 MB of frames, more than the socket buffers hold
	attached := make(chan struct{})
	cfg := Config{Workers: 1}
	cfg.Executor = execFunc(func(ctx context.Context, j ExecJob) (*report.Report, exp.Stats, int, error) {
		<-attached
		for i := 0; i < n; i++ {
			j.Emit(exp.ProgressEvent{Suite: exp.SuiteID(j.Spec.Suite), Benchmark: "fake", Mechanism: "fake", Phase: exp.PhaseRunStart})
		}
		return report.New(), exp.Stats{}, 0, nil
	})
	s, ts := newTestServer(t, cfg, nil)
	st := submit(t, ts.URL, JobSpec{Suite: "lru"})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(attached)
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	<-j.done // every event is published before the watcher reads any

	events := readSSE(t, resp.Body)
	if want := n + 3; len(events) != want { // queued, running, n progress, done
		t.Fatalf("got %d events, want %d", len(events), want)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if last := events[len(events)-1]; !last.Terminal() || last.Status != StatusDone {
		t.Fatalf("last event %+v, want done state", last)
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	fake := newFakeExec()
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1}, fake)

	first := submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started // worker busy on first
	second := submit(t, ts.URL, JobSpec{Suite: "lru"})

	// Worker occupied, queue holds one: the third submission must bounce.
	body, _ := json.Marshal(JobSpec{Suite: "lru"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	fake.releaseAll(2)
	waitStatus(t, ts.URL, first.ID, StatusDone)
	waitStatus(t, ts.URL, second.ID, StatusDone)
}

func TestWorkerPoolBound(t *testing.T) {
	fake := newFakeExec()
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 16}, fake)

	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, submit(t, ts.URL, JobSpec{Suite: "lru"}).ID)
	}
	// Exactly Workers jobs may execute at once; release them one at a time
	// so every job cycles through.
	for i := 0; i < 8; i++ {
		<-fake.started
		fake.releaseAll(1)
	}
	for _, id := range ids {
		waitStatus(t, ts.URL, id, StatusDone)
	}
	if max := atomic.LoadInt32(&fake.maxSeen); max > 2 {
		t.Fatalf("observed %d concurrent jobs, worker pool bound is 2", max)
	}
}

func TestCancelViaDelete(t *testing.T) {
	fake := newFakeExec()
	_, ts := newTestServer(t, Config{Workers: 1}, fake)
	st := submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := waitStatus(t, ts.URL, st.ID, StatusCanceled)
	if got.Result != nil {
		t.Fatal("canceled job has a result")
	}
}

func TestCancelOnClientDisconnect(t *testing.T) {
	fake := newFakeExec()
	_, ts := newTestServer(t, Config{Workers: 1}, fake)
	st := submit(t, ts.URL, JobSpec{Suite: "lru", CancelOnDisconnect: true})
	<-fake.started

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame so the subscription is live, then hang up.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	waitStatus(t, ts.URL, st.ID, StatusCanceled)
}

func TestGracefulDrain(t *testing.T) {
	fake := newFakeExec()
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4}, fake)

	running := submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started
	queued := submit(t, ts.URL, JobSpec{Suite: "lru"})

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// New submissions are refused while draining. Poll: the drain flag is
	// set by the goroutine above, so a poll that lands before it is
	// admitted like any job, and the drain must finish it too.
	admitted := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, code := trySubmit(t, ts.URL, JobSpec{Suite: "lru"})
		if code == http.StatusServiceUnavailable {
			break
		}
		if code == http.StatusAccepted {
			admitted++
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never started refusing submissions (last code %d)", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Both in-flight jobs (and any poll admitted before the drain flag)
	// complete and keep their results.
	fake.releaseAll(2 + admitted)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		st := getJob(t, ts.URL, id)
		if st.Status != StatusDone {
			t.Fatalf("job %s drained to %s, want done", id, st.Status)
		}
	}
}

func TestDrainDeadlineCancelsLiveJobs(t *testing.T) {
	fake := newFakeExec()
	s, ts := newTestServer(t, Config{Workers: 1}, fake)
	st := submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started // never released: only the drain deadline can end it

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err %v, want deadline exceeded", err)
	}
	got := getJob(t, ts.URL, st.ID)
	if got.Status != StatusCanceled {
		t.Fatalf("job status %s after forced drain, want canceled", got.Status)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, newFakeExec())
	for _, spec := range []JobSpec{
		{Suite: "nope"},
		{Suite: "lru", Benches: []string{"not-a-benchmark"}},
		{Suite: "lru", Workers: -1},
	} {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %+v: status %d, want 400", spec, resp.StatusCode)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	fake := newFakeExec()
	fake.stats = exp.Stats{Executed: 3, DiskHits: 1}
	_, ts := newTestServer(t, Config{Workers: 1}, fake)
	st := submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started
	fake.releaseAll(1)
	waitStatus(t, ts.URL, st.ID, StatusDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"conspec_served_jobs_submitted_total 1\n",
		"conspec_served_jobs_done_total 1\n",
		"conspec_served_runs_executed_total 3\n",
		"conspec_served_cache_hits_disk_total 1\n",
		"conspec_served_jobs_running 0\n",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestDiskCacheAcrossRestart is the acceptance-criteria test: a cold job
// simulates, then a second server over the same cache directory serves the
// identical submission entirely from disk.
func TestDiskCacheAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	dir := t.TempDir()
	spec := tinySpec("lru")

	open := func() (*Server, *httptest.Server, func()) {
		store, err := diskcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 1, Cache: store})
		ts := httptest.NewServer(s.Handler())
		return s, ts, func() { ts.Close(); s.Close() }
	}

	s1, ts1, close1 := open()
	_ = s1
	st := submit(t, ts1.URL, spec)
	cold := waitStatus(t, ts1.URL, st.ID, StatusDone)
	if cold.Engine == nil || cold.Engine.Executed == 0 {
		t.Fatalf("cold job executed nothing: %+v", cold.Engine)
	}
	if cold.Result == nil || cold.Result.LRU == nil {
		t.Fatal("cold job missing lru result section")
	}
	coldJSON, _ := json.Marshal(cold.Result.LRU)
	close1()

	s2, ts2, close2 := open()
	_ = s2
	defer close2()
	st2 := submit(t, ts2.URL, spec)
	warm := waitStatus(t, ts2.URL, st2.ID, StatusDone)
	if warm.Engine == nil {
		t.Fatal("warm job missing engine stats")
	}
	if warm.Engine.Executed != 0 {
		t.Fatalf("warm job executed %d simulations, want 0", warm.Engine.Executed)
	}
	if warm.Engine.DiskHits == 0 {
		t.Fatal("warm job reported no disk hits")
	}
	warmJSON, _ := json.Marshal(warm.Result.LRU)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatalf("results differ across restart:\ncold %s\nwarm %s", coldJSON, warmJSON)
	}

	// Server counters confirm the disk tier served everything.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(out), "conspec_served_runs_executed_total 0\n") {
		t.Errorf("restarted server executed simulations:\n%s", out)
	}
	if !strings.Contains(string(out), fmt.Sprintf("conspec_served_cache_hits_disk_total %d\n", warm.Engine.DiskHits)) {
		t.Errorf("disk hit counter mismatch:\n%s", out)
	}
}

func TestRealRunnerProgressEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	st := submit(t, ts.URL, tinySpec("lru"))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	var runDone int
	for _, ev := range events {
		if ev.Type == "progress" && ev.Progress != nil && ev.Progress.Phase == exp.PhaseRunDone {
			runDone++
		}
	}
	if runDone == 0 {
		t.Fatalf("no run-done progress events in %d events", len(events))
	}
	if last := events[len(events)-1]; last.Status != StatusDone {
		t.Fatalf("stream ended with %+v", last)
	}
}
