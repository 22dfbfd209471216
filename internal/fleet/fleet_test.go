package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/pipeline"
	"conspec/internal/serve"
)

// newTestCoordinator builds a coordinator with a fast reaper clock and no
// journal.
func newTestCoordinator(t *testing.T, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	if opts.Identity == "" {
		opts.Identity = "test-identity"
	}
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 50 * time.Millisecond
	}
	c := NewCoordinator(opts)
	t.Cleanup(c.Close)
	return c
}

func mustRegister(t *testing.T, c *Coordinator, name string, slots int) string {
	t.Helper()
	resp, err := c.register(RegisterRequest{Name: name, Identity: c.opts.Identity, Slots: slots})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return resp.Worker
}

// startExec launches c.Execute for a job and returns a channel carrying
// its outcome.
type execOutcome struct {
	rep    *report.Report
	stats  exp.Stats
	failed int
	err    error
}

func startExec(c *Coordinator, ctx context.Context, job serve.ExecJob) chan execOutcome {
	ch := make(chan execOutcome, 1)
	go func() {
		rep, stats, failed, err := c.Execute(ctx, job)
		ch <- execOutcome{rep, stats, failed, err}
	}()
	return ch
}

func testReportJSON(t *testing.T) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(report.New())
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

func waitGrant(t *testing.T, c *Coordinator, worker string) *LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g, err := c.leaseNext(worker, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("leaseNext(%s): %v", worker, err)
		}
		if g != nil {
			return g
		}
	}
	t.Fatalf("no grant for %s within deadline", worker)
	return nil
}

// TestRegisterIdentityMismatch covers satellite 1: a worker built from a
// different commit is refused with a typed 409 naming both identities —
// over the protocol methods and over HTTP.
func TestRegisterIdentityMismatch(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{Identity: "coord-abc"})

	_, err := c.register(RegisterRequest{Name: "w1", Identity: "worker-xyz", Slots: 1})
	var mismatch *IdentityMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("want *IdentityMismatchError, got %v", err)
	}
	if mismatch.CoordinatorIdentity != "coord-abc" || mismatch.WorkerIdentity != "worker-xyz" {
		t.Fatalf("mismatch identities wrong: %+v", mismatch)
	}
	if !strings.Contains(mismatch.Error(), "coord-abc") || !strings.Contains(mismatch.Error(), "worker-xyz") {
		t.Fatalf("Error() should name both identities: %s", mismatch.Error())
	}

	// Same over HTTP: 409 with the JSON body.
	srv := httptest.NewServer(c.Handler(http.NotFoundHandler()))
	defer srv.Close()
	body, _ := json.Marshal(RegisterRequest{Name: "w1", Identity: "worker-xyz", Slots: 1})
	resp, err := http.Post(srv.URL+"/fleet/v1/register", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST register: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	var wire IdentityMismatchError
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatalf("decode 409 body: %v", err)
	}
	if wire.CoordinatorIdentity != "coord-abc" || wire.WorkerIdentity != "worker-xyz" {
		t.Fatalf("409 body identities wrong: %+v", wire)
	}

	// And the Worker client surfaces it as a terminal error.
	w := NewWorker(WorkerOptions{Coordinator: srv.URL, Identity: "worker-xyz"})
	runErr := w.Run(context.Background())
	if !errors.As(runErr, &mismatch) {
		t.Fatalf("Worker.Run: want *IdentityMismatchError, got %v", runErr)
	}
}

// TestWorkerKilledMidLease covers the core recovery invariant: a lease
// whose holder dies is re-queued exactly once, the replacement's result
// is accepted, and the dead worker's late post (stale generation) is
// ignored — one result, not two.
func TestWorkerKilledMidLease(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{HeartbeatTimeout: 100 * time.Millisecond})
	w1 := mustRegister(t, c, "w1", 1)

	ctx := context.Background()
	out := startExec(c, ctx, serve.ExecJob{ID: "job-1", Spec: serve.JobSpec{Suite: "defenses"}})

	g1 := waitGrant(t, c, w1)
	if g1.Lease != "job-1" || g1.Gen != 1 {
		t.Fatalf("grant = %+v, want job-1 gen 1", g1)
	}

	// w1 goes silent; the reaper declares it lost and re-queues the lease.
	c.reap(time.Now().Add(time.Second))

	c.mu.Lock()
	requeued := c.requeued
	c.mu.Unlock()
	if requeued != 1 {
		t.Fatalf("requeued = %d, want 1", requeued)
	}

	w2 := mustRegister(t, c, "w2", 1)
	g2 := waitGrant(t, c, w2)
	if g2.Lease != "job-1" || g2.Gen != 2 {
		t.Fatalf("regrant = %+v, want job-1 gen 2", g2)
	}

	// The replacement's result lands...
	rep2, err := c.finishLease("job-1", ResultPost{
		Worker: w2, Gen: 2, Status: ResultDone, Report: testReportJSON(t),
		Engine: exp.Stats{Executed: 7},
	})
	if err != nil || !rep2.Accepted {
		t.Fatalf("gen-2 result: accepted=%v err=%v, want accepted", rep2.Accepted, err)
	}

	// ...and the dead worker's late post is ignored, not duplicated.
	rep1, err := c.finishLease("job-1", ResultPost{
		Worker: w1, Gen: 1, Status: ResultDone, Report: testReportJSON(t),
		Engine: exp.Stats{Executed: 99},
	})
	if err != nil || rep1.Accepted {
		t.Fatalf("gen-1 result: accepted=%v err=%v, want ignored", rep1.Accepted, err)
	}

	res := <-out
	if res.err != nil {
		t.Fatalf("Execute: %v", res.err)
	}
	if res.stats.Executed != 7 {
		t.Fatalf("stats.Executed = %d, want the gen-2 result's 7", res.stats.Executed)
	}
}

// TestRequeueGivesUpAfterMax: a job bounced across MaxRequeues worker
// deaths fails terminally instead of looping forever.
func TestRequeueGivesUpAfterMax(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{HeartbeatTimeout: 50 * time.Millisecond, MaxRequeues: 2})
	out := startExec(c, context.Background(), serve.ExecJob{ID: "job-1", Spec: serve.JobSpec{Suite: "defenses"}})
	for i := 0; i < 3; i++ {
		w := mustRegister(t, c, "w1", 1) // same name: each registration replaces the lost one
		g := waitGrant(t, c, w)
		if g.Lease != "job-1" {
			t.Fatalf("round %d: grant %+v", i, g)
		}
		c.reap(time.Now().Add(time.Second))
	}
	res := <-out
	if res.err == nil || !strings.Contains(res.err.Error(), "giving up") {
		t.Fatalf("Execute err = %v, want terminal giving-up failure", res.err)
	}
}

// TestDuplicateSpecCoalesced: two jobs with byte-identical specs share
// one lease and one execution, fleet-wide.
func TestDuplicateSpecCoalesced(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	w1 := mustRegister(t, c, "w1", 2)

	spec := serve.JobSpec{Suite: "defenses", Defenses: []string{"fence"}, Measure: 1000}
	var worker1 string
	var mu sync.Mutex
	outA := startExec(c, context.Background(), serve.ExecJob{
		ID: "job-a", Spec: spec,
		SetWorker: func(w string) { mu.Lock(); worker1 = w; mu.Unlock() },
	})
	waitGrant(t, c, w1) // job-a leased

	outB := startExec(c, context.Background(), serve.ExecJob{ID: "job-b", Spec: spec})

	// job-b must coalesce, not queue: no second grant appears.
	if g, err := c.leaseNext(w1, 100*time.Millisecond); err != nil || g != nil {
		t.Fatalf("second grant = %+v err=%v, want none (coalesced)", g, err)
	}
	c.mu.Lock()
	coalesced := c.coalesced
	c.mu.Unlock()
	if coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", coalesced)
	}

	reply, err := c.finishLease("job-a", ResultPost{
		Worker: w1, Gen: 1, Status: ResultDone, Report: testReportJSON(t),
		Engine: exp.Stats{Executed: 3},
	})
	if err != nil || !reply.Accepted {
		t.Fatalf("result: accepted=%v err=%v", reply.Accepted, err)
	}

	resA, resB := <-outA, <-outB
	if resA.err != nil || resB.err != nil {
		t.Fatalf("Execute errs: %v / %v", resA.err, resB.err)
	}
	if resA.rep == nil || resA.rep != resB.rep {
		t.Fatalf("coalesced jobs should share the same result document")
	}
	mu.Lock()
	defer mu.Unlock()
	if worker1 != w1 {
		t.Fatalf("SetWorker saw %q, want %q", worker1, w1)
	}
}

// TestHeartbeatRacesCancel: a client cancel (job context death) racing
// the holder's heartbeat must converge — the worker learns about the
// cancel on some heartbeat, posts canceled, and the lease finishes. Run
// under -race this also exercises the locking on both paths.
func TestHeartbeatRacesCancel(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	w1 := mustRegister(t, c, "w1", 1)

	ctx, cancel := context.WithCancel(context.Background())
	out := startExec(c, ctx, serve.ExecJob{ID: "job-1", Spec: serve.JobSpec{Suite: "defenses"}})
	g := waitGrant(t, c, w1)

	// Fire the cancel and a burst of heartbeats concurrently.
	var wg sync.WaitGroup
	wg.Add(2)
	canceledSeen := make(chan struct{}, 1)
	go func() {
		defer wg.Done()
		cancel()
	}()
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := c.heartbeat(HeartbeatRequest{Worker: w1})
			if err != nil {
				t.Errorf("heartbeat: %v", err)
				return
			}
			for _, id := range resp.Canceled {
				if id == g.Lease {
					select {
					case canceledSeen <- struct{}{}:
					default:
					}
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
		t.Error("heartbeat never reported the canceled lease")
	}()
	wg.Wait()

	res := <-out
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("Execute err = %v, want context.Canceled", res.err)
	}
	select {
	case <-canceledSeen:
	default:
		t.Fatal("cancel never reached the heartbeat reply")
	}

	// The worker acknowledges with a canceled result; the lease is gone.
	reply, err := c.finishLease(g.Lease, ResultPost{Worker: w1, Gen: g.Gen, Status: ResultCanceled})
	if err != nil {
		t.Fatalf("canceled result: %v", err)
	}
	_ = reply // accepted or already finished; both are fine — what matters:
	c.mu.Lock()
	live := len(c.leases)
	c.mu.Unlock()
	if live != 0 {
		t.Fatalf("live leases = %d, want 0", live)
	}
}

// TestAbandonedLeaseRequeuedImmediately: a worker shutting down posts
// abandoned, and the job is back on the queue without waiting for the
// heartbeat timeout.
func TestAbandonedLeaseRequeuedImmediately(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{HeartbeatTimeout: time.Hour})
	w1 := mustRegister(t, c, "w1", 1)
	out := startExec(c, context.Background(), serve.ExecJob{ID: "job-1", Spec: serve.JobSpec{Suite: "defenses"}})
	g := waitGrant(t, c, w1)

	reply, err := c.finishLease(g.Lease, ResultPost{Worker: w1, Gen: g.Gen, Status: ResultAbandoned})
	if err != nil || !reply.Accepted {
		t.Fatalf("abandon: accepted=%v err=%v", reply.Accepted, err)
	}

	w2 := mustRegister(t, c, "w2", 1)
	g2 := waitGrant(t, c, w2)
	if g2.Lease != "job-1" || g2.Gen != 2 {
		t.Fatalf("regrant = %+v, want job-1 gen 2", g2)
	}
	if _, err := c.finishLease(g2.Lease, ResultPost{
		Worker: w2, Gen: g2.Gen, Status: ResultDone, Report: testReportJSON(t),
	}); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res := <-out; res.err != nil {
		t.Fatalf("Execute: %v", res.err)
	}
}

// TestEndToEndWorker drives a real Worker (with a stubbed execution path)
// against a coordinator over HTTP: registration, lease, progress
// forwarding, result post, and the metrics merge.
func TestEndToEndWorker(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{
		Identity:          "e2e",
		HeartbeatInterval: 20 * time.Millisecond,
	})
	srv := httptest.NewServer(c.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Stand-in for the serve handler: /metrics base exposition.
		if r.URL.Path == "/metrics" {
			w.Write([]byte("# TYPE conspec_served_jobs_done_total counter\nconspec_served_jobs_done_total 0\n"))
			return
		}
		http.NotFound(w, r)
	})))
	defer srv.Close()

	w := NewWorker(WorkerOptions{
		Coordinator:   srv.URL,
		Name:          "e2e-w1",
		Identity:      "e2e",
		Slots:         1,
		ProgressFlush: 10 * time.Millisecond,
		execOverride: func(ctx context.Context, spec serve.JobSpec, emit func(exp.ProgressEvent)) (*report.Report, exp.Stats, int, error) {
			emit(exp.ProgressEvent{Benchmark: "spectre-v1", Mechanism: "fence"})
			emit(exp.ProgressEvent{Benchmark: "spectre-v1", Mechanism: "fence", Phase: exp.PhaseBenchDone})
			return report.New(), exp.Stats{Executed: 2}, 0, nil
		},
	})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(wctx) }()

	var mu sync.Mutex
	var events []exp.ProgressEvent
	var seenWorker string
	out := startExec(c, context.Background(), serve.ExecJob{
		ID:   "job-e2e",
		Spec: serve.JobSpec{Suite: "defenses"},
		Emit: func(ev exp.ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
		SetWorker: func(id string) {
			mu.Lock()
			seenWorker = id
			mu.Unlock()
		},
	})

	select {
	case res := <-out:
		if res.err != nil {
			t.Fatalf("Execute: %v", res.err)
		}
		if res.rep == nil || res.stats.Executed != 2 {
			t.Fatalf("result = rep=%v stats=%+v", res.rep, res.stats)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Execute did not finish")
	}

	mu.Lock()
	nEvents, worker := len(events), seenWorker
	mu.Unlock()
	if nEvents != 2 {
		t.Fatalf("forwarded events = %d, want 2", nEvents)
	}
	if worker != "e2e-w1" {
		t.Fatalf("SetWorker saw %q, want e2e-w1", worker)
	}

	// After a heartbeat, the worker's pushed counters show up in /metrics
	// with the worker label, appended after the base exposition.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(b)
		if strings.Contains(text, `conspec_served_worker_leases_done_total{worker="e2e-w1"} 1`) {
			if !strings.Contains(text, "conspec_served_jobs_done_total 0") {
				t.Fatalf("base exposition missing:\n%s", text)
			}
			if !strings.Contains(text, "conspec_served_fleet_workers 1") {
				t.Fatalf("fleet gauges missing:\n%s", text)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker metrics never appeared in /metrics:\n%s", text)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Graceful worker shutdown exits Run cleanly.
	wcancel()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("Worker.Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not shut down")
	}
}

// TestWorkerAbandonsOnShutdown: killing the worker's context mid-lease
// posts abandoned (not canceled), so the coordinator re-queues at once.
func TestWorkerAbandonsOnShutdown(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{Identity: "e2e", HeartbeatTimeout: time.Hour})
	srv := httptest.NewServer(c.Handler(http.NotFoundHandler()))
	defer srv.Close()

	started := make(chan struct{})
	w := NewWorker(WorkerOptions{
		Coordinator: srv.URL, Name: "w1", Identity: "e2e", Slots: 1,
		execOverride: func(ctx context.Context, spec serve.JobSpec, emit func(exp.ProgressEvent)) (*report.Report, exp.Stats, int, error) {
			close(started)
			<-ctx.Done()
			return nil, exp.Stats{}, 0, ctx.Err()
		},
	})
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(wctx) }()

	out := startExec(c, context.Background(), serve.ExecJob{ID: "job-1", Spec: serve.JobSpec{Suite: "defenses"}})
	<-started
	wcancel()
	if err := <-workerDone; err != nil {
		t.Fatalf("Worker.Run: %v", err)
	}

	// The lease must be pending again (gen 2), not dead with the worker.
	c.mu.Lock()
	requeued := c.requeued
	pending := len(c.pending)
	c.mu.Unlock()
	if requeued != 1 || pending != 1 {
		t.Fatalf("requeued=%d pending=%d, want 1/1", requeued, pending)
	}

	// A fresh worker finishes the job.
	w2 := mustRegister(t, c, "w2", 1)
	g := waitGrant(t, c, w2)
	if g.Gen != 2 {
		t.Fatalf("gen = %d, want 2", g.Gen)
	}
	if _, err := c.finishLease(g.Lease, ResultPost{
		Worker: w2, Gen: g.Gen, Status: ResultDone, Report: testReportJSON(t),
	}); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res := <-out; res.err != nil {
		t.Fatalf("Execute: %v", res.err)
	}
}

// mapStore is an in-memory ResultStore for tests.
type mapStore struct {
	mu sync.Mutex
	m  map[string]pipeline.Result
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string]pipeline.Result)} }

func (s *mapStore) Get(key string) (pipeline.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	return r, ok
}

func (s *mapStore) Put(key string, res pipeline.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = res
}

// TestRemoteAndTieredStore: workers reach the coordinator's store over
// HTTP; the tiered view copies remote hits through to the local tier.
func TestRemoteAndTieredStore(t *testing.T) {
	store := newMapStore()
	c := newTestCoordinator(t, CoordinatorOptions{Store: store})
	srv := httptest.NewServer(c.Handler(http.NotFoundHandler()))
	defer srv.Close()

	remote := NewRemoteStore(srv.URL, nil)

	if _, ok := remote.Get("deadbeef"); ok {
		t.Fatal("miss expected on empty store")
	}
	want := pipeline.Result{Cycles: 12345, Committed: 99, Halted: true}
	remote.Put("deadbeef", want)
	got, ok := remote.Get("deadbeef")
	if !ok || got.Cycles != 12345 || got.Committed != 99 || !got.Halted {
		t.Fatalf("remote round-trip = %+v ok=%v", got, ok)
	}
	if rs := remote.Stats(); rs.Puts != 1 || rs.Hits != 1 || rs.Gets != 2 {
		t.Fatalf("remote stats = %+v", rs)
	}

	local := newMapStore()
	tiered := &TieredStore{Local: local, Remote: remote}
	got, ok = tiered.Get("deadbeef") // remote hit, copied through
	if !ok || got.Cycles != 12345 {
		t.Fatalf("tiered get = %+v ok=%v", got, ok)
	}
	if _, ok := local.Get("deadbeef"); !ok {
		t.Fatal("remote hit not copied through to local tier")
	}
	if _, ok = tiered.Get("deadbeef"); !ok {
		t.Fatal("want local hit")
	}
	ts := tiered.Stats()
	if ts.RemoteHits != 1 || ts.LocalHits != 1 {
		t.Fatalf("tiered stats = %+v", ts)
	}

	tiered.Put("cafe", pipeline.Result{Cycles: 1})
	if _, ok := local.Get("cafe"); !ok {
		t.Fatal("put missed local tier")
	}
	if _, ok := store.Get("cafe"); !ok {
		t.Fatal("put missed coordinator store")
	}
}

// TestJobKeyCoalescingKey: specs differing in any result-affecting field
// must not coalesce.
func TestJobKeyCoalescingKey(t *testing.T) {
	a := serve.JobSpec{Suite: "defenses", Defenses: []string{"fence"}}
	b := serve.JobSpec{Suite: "defenses", Defenses: []string{"fence"}}
	if jobKeyOf(a) != jobKeyOf(b) {
		t.Fatal("identical specs should share a key")
	}
	b.Measure = 5000
	if jobKeyOf(a) == jobKeyOf(b) {
		t.Fatal("different measure budgets must not coalesce")
	}
}

// TestDrainedWorkerPollsWait: a worker drained between heartbeats keeps
// polling until its next heartbeat tells it to stop. Each of those polls
// must wait out its window, as on an empty queue; answered at once, the
// worker's slots re-poll in a tight loop.
func TestDrainedWorkerPollsWait(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{
		Identity:          "e2e",
		HeartbeatInterval: 2 * time.Second,
		LeaseWait:         250 * time.Millisecond,
	})
	var polls atomic.Int64
	h := c.Handler(http.NotFoundHandler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fleet/v1/lease" {
			polls.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	w := NewWorker(WorkerOptions{
		Coordinator: srv.URL, Name: "w1", Identity: "e2e", Slots: 2,
		execOverride: func(ctx context.Context, spec serve.JobSpec, emit func(exp.ProgressEvent)) (*report.Report, exp.Stats, int, error) {
			t.Error("a drained worker was handed a lease")
			return report.New(), exp.Stats{}, 0, nil
		},
	})
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(wctx) }()
	defer func() {
		wcancel()
		<-workerDone
	}()
	deadline := time.Now().Add(5 * time.Second)
	for polls.Load() < 2 { // both slots are long-polling
		if time.Now().After(deadline) {
			t.Fatal("worker never polled for leases")
		}
		time.Sleep(time.Millisecond)
	}

	// Drain it, then queue a job: the pending lease wakes both polls. The
	// worker learns it is draining only at its first heartbeat, 2 s after
	// registering; the window below ends well before that.
	if _, ok := c.drainWorker("w1"); !ok {
		t.Fatal("drain: worker w1 not registered")
	}
	jctx, jcancel := context.WithCancel(context.Background())
	out := startExec(c, jctx, serve.ExecJob{ID: "job-1", Spec: serve.JobSpec{Suite: "lru"}})
	before := polls.Load()
	time.Sleep(time.Second)
	n := polls.Load() - before
	jcancel()
	<-out

	// Two slots polling 250 ms windows make about 8 polls in a second.
	if n > 12 {
		t.Fatalf("drained worker sent %d lease polls in 1s, want at most 12 (one per slot per poll window)", n)
	}
}

// TestCanceledLeaseCountsNeitherDoneNorFailed: a leased job whose client
// cancels ends with the worker posting canceled; the worker's row must
// count that lease as neither completed nor failed.
func TestCanceledLeaseCountsNeitherDoneNorFailed(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	w1 := mustRegister(t, c, "w1", 1)
	ctx, cancel := context.WithCancel(context.Background())
	out := startExec(c, ctx, serve.ExecJob{ID: "job-1", Spec: serve.JobSpec{Suite: "defenses"}})
	g := waitGrant(t, c, w1)
	cancel()
	if res := <-out; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("Execute err = %v, want context.Canceled", res.err)
	}
	reply, err := c.finishLease(g.Lease, ResultPost{Worker: w1, Gen: g.Gen, Status: ResultCanceled})
	if err != nil || !reply.Accepted {
		t.Fatalf("canceled result: accepted=%v err=%v", reply.Accepted, err)
	}
	infos := c.workerInfos()
	if len(infos) != 1 || infos[0].Done != 0 || infos[0].Failed != 0 || infos[0].Active != 0 {
		t.Fatalf("workers = %+v, want w1 with done 0, failed 0, active 0", infos)
	}
}

// tinyLRU is a real job small enough to simulate in a test: four runs.
var tinyLRU = serve.JobSpec{Suite: "lru", Benches: []string{"astar"}, Warmup: 2000, Measure: 8000}

// startRealWorker runs a Worker on the real execution path
// (serve.ExecuteSpec over the coordinator's store, no local tier) against
// c over HTTP until the test ends.
func startRealWorker(t *testing.T, c *Coordinator) {
	t.Helper()
	srv := httptest.NewServer(c.Handler(http.NotFoundHandler()))
	w := NewWorker(WorkerOptions{
		Coordinator: srv.URL, Name: "w1", Identity: c.opts.Identity, Slots: 1,
		ProgressFlush: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done
		srv.Close()
	})
}

// tracedJob is an ExecJob that records its progress events and any worker
// assignment.
type tracedJob struct {
	mu     sync.Mutex
	events []exp.ProgressEvent
	worker string
}

func (tj *tracedJob) job(id string, spec serve.JobSpec) serve.ExecJob {
	return serve.ExecJob{
		ID: id, Spec: spec,
		Emit: func(ev exp.ProgressEvent) {
			tj.mu.Lock()
			tj.events = append(tj.events, ev)
			tj.mu.Unlock()
		},
		SetWorker: func(w string) {
			tj.mu.Lock()
			tj.worker = w
			tj.mu.Unlock()
		},
	}
}

// execute runs one job through c.Execute to completion.
func execute(t *testing.T, c *Coordinator, job serve.ExecJob) execOutcome {
	t.Helper()
	select {
	case res := <-startExec(c, context.Background(), job):
		if res.err != nil {
			t.Fatalf("job %s: %v", job.ID, res.err)
		}
		return res
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", job.ID)
		return execOutcome{}
	}
}

// leasesDone sums the completed leases over the registered workers.
func leasesDone(c *Coordinator) uint64 {
	var n uint64
	for _, w := range c.workerInfos() {
		n += w.Done
	}
	return n
}

// strippedJSON is the job document without its engine counters, which
// differ between a leased and a resolved answer by design.
func strippedJSON(t *testing.T, rep *report.Report) string {
	t.Helper()
	doc := *rep
	doc.Engine = nil
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(b)
}

// TestWarmJobResolvedWithoutLease: the identical resubmission of a job a
// worker executed is answered from the coordinator's store. It gets no
// grant, names no worker, replays its progress, and its document equals
// the leased one.
func TestWarmJobResolvedWithoutLease(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{Store: newMapStore()})
	startRealWorker(t, c)

	cold := execute(t, c, serve.ExecJob{ID: "cold", Spec: tinyLRU})
	if cold.stats.Executed != 4 || leasesDone(c) != 1 {
		t.Fatalf("cold job: stats %+v, leases done %d; want 4 executed on 1 lease", cold.stats, leasesDone(c))
	}

	var tj tracedJob
	warm := execute(t, c, tj.job("warm", tinyLRU))
	if n := leasesDone(c); n != 1 {
		t.Fatalf("leases done = %d after the resubmission, want 1 (no grant)", n)
	}
	if warm.stats.Executed != 0 || warm.stats.DiskHits != warm.stats.Submitted() || warm.stats.DiskHits != 4 {
		t.Fatalf("warm stats = %+v, want 4 disk hits and nothing executed", warm.stats)
	}
	if got, want := strippedJSON(t, warm.rep), strippedJSON(t, cold.rep); got != want {
		t.Fatalf("resolved document differs from the leased one:\n got %s\nwant %s", got, want)
	}
	tj.mu.Lock()
	worker, events := tj.worker, tj.events
	tj.mu.Unlock()
	if worker != "" {
		t.Fatalf("resolved job named worker %q, want none", worker)
	}
	cached := 0
	for _, ev := range events {
		if ev.Phase == exp.PhaseCached && ev.Tier == exp.TierDisk {
			cached++
		}
	}
	if cached != 4 {
		t.Fatalf("forwarded %d disk-tier cached events (of %d), want 4", cached, len(events))
	}
	var metrics strings.Builder
	c.writeMetrics(&metrics)
	if !strings.Contains(metrics.String(), "conspec_served_fleet_jobs_resolved_total 1\n") {
		t.Fatalf("metrics missing the resolved counter:\n%s", metrics.String())
	}

	// Concurrent resubmissions resolve side by side, still without a grant.
	outs := make([]chan execOutcome, 3)
	for i := range outs {
		outs[i] = startExec(c, context.Background(), serve.ExecJob{ID: "warm-" + string(rune('a'+i)), Spec: tinyLRU})
	}
	for _, out := range outs {
		if res := <-out; res.err != nil || res.stats.Executed != 0 {
			t.Fatalf("concurrent resubmission: stats %+v, err %v", res.stats, res.err)
		}
	}
	c.mu.Lock()
	resolved := c.resolved
	c.mu.Unlock()
	if resolved != 4 || leasesDone(c) != 1 {
		t.Fatalf("resolved = %d, leases done = %d; want 4 resolved on the one cold lease", resolved, leasesDone(c))
	}
}

// TestPartlyStoredJobLeased: with one of its runs missing from the store,
// a resubmitted job is leased, and the worker executes exactly that run.
func TestPartlyStoredJobLeased(t *testing.T) {
	store := newMapStore()
	c := newTestCoordinator(t, CoordinatorOptions{Store: store})
	startRealWorker(t, c)

	execute(t, c, serve.ExecJob{ID: "cold", Spec: tinyLRU})
	store.mu.Lock()
	for key := range store.m {
		delete(store.m, key)
		break
	}
	store.mu.Unlock()

	var tj tracedJob
	res := execute(t, c, tj.job("partial", tinyLRU))
	if n := leasesDone(c); n != 2 {
		t.Fatalf("leases done = %d, want 2 (the resubmission was leased)", n)
	}
	if res.stats.Executed != 1 || res.stats.DiskHits != 3 {
		t.Fatalf("leased stats = %+v, want exactly the missing run executed", res.stats)
	}
	tj.mu.Lock()
	worker := tj.worker
	tj.mu.Unlock()
	if worker != "w1" {
		t.Fatalf("leased job names worker %q, want w1", worker)
	}
	c.mu.Lock()
	resolved := c.resolved
	c.mu.Unlock()
	if resolved != 0 {
		t.Fatalf("resolved = %d, want 0", resolved)
	}
}

// TestDefensesJobAlwaysLeased: the defenses suite's V1 verdicts are never
// stored, so even a resubmission whose overhead runs are all stored is
// leased; the coordinator never simulates.
func TestDefensesJobAlwaysLeased(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{Store: newMapStore()})
	startRealWorker(t, c)

	spec := serve.JobSpec{Suite: "defenses", Benches: []string{"astar"}, Defenses: []string{"origin"}, Warmup: 2000, Measure: 8000}
	execute(t, c, serve.ExecJob{ID: "cold", Spec: spec})
	res := execute(t, c, serve.ExecJob{ID: "again", Spec: spec})
	if n := leasesDone(c); n != 2 {
		t.Fatalf("leases done = %d, want 2 (defenses jobs are always leased)", n)
	}
	if res.stats.Executed != 0 {
		t.Fatalf("resubmission stats = %+v, want its overhead runs from the store", res.stats)
	}
	c.mu.Lock()
	resolved := c.resolved
	c.mu.Unlock()
	if resolved != 0 {
		t.Fatalf("resolved = %d, want 0", resolved)
	}
}
