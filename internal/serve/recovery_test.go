package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"conspec/internal/diskcache"
	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/serve/journal"
)

// TestJournalRecoveryAcrossRestart is the tentpole's acceptance test at the
// package level: jobs accepted (one of them already running) when the
// process dies are re-queued by the next server over the same journal,
// marked recovered, and run to completion.
func TestJournalRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	jr1, recovered, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(recovered))
	}

	fake1 := newFakeExec()
	_, ts1 := newTestServer(t, Config{Workers: 1, QueueCap: 4, Journal: jr1}, fake1)
	first := submit(t, ts1.URL, JobSpec{Suite: "lru"})
	<-fake1.started // first's OpStarted is durable once exec begins
	second := submit(t, ts1.URL, JobSpec{Suite: "scope"})
	third := submit(t, ts1.URL, JobSpec{Suite: "dtlb"})

	// Crash: no Drain, no cancels — just drop the journal's file handle the
	// way kill -9 would. The still-running server's later appends fail and
	// are logged, exactly as they would vanish in a real crash.
	if err := jr1.Close(); err != nil {
		t.Fatal(err)
	}

	jr2, recovered, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 3 {
		t.Fatalf("recovered %d jobs, want 3: %+v", len(recovered), recovered)
	}
	if recovered[0].Job != first.ID || recovered[0].Op != journal.OpStarted {
		t.Fatalf("recovered[0] = %s/%s, want %s/started", recovered[0].Job, recovered[0].Op, first.ID)
	}

	// QueueCap 1 < 3 recovered jobs: the backlog must still be accepted in
	// full (the queue is sized for it), with fresh submissions rejected
	// until it drains below the cap.
	fake2 := newFakeExec()
	_, ts2 := newTestServer(t, Config{Workers: 1, QueueCap: 1, Journal: jr2, Recovered: recovered}, fake2)
	if _, code := trySubmit(t, ts2.URL, JobSpec{Suite: "lru"}); code != http.StatusTooManyRequests {
		t.Fatalf("fresh submit over a full recovered backlog: status %d, want 429", code)
	}

	for _, id := range []string{first.ID, second.ID, third.ID} {
		st := getJob(t, ts2.URL, id)
		if !st.Recovered {
			t.Fatalf("job %s not flagged recovered: %+v", id, st)
		}
	}
	for i := 0; i < 3; i++ {
		<-fake2.started
		fake2.releaseAll(1)
	}
	for _, id := range []string{first.ID, second.ID, third.ID} {
		if st := waitStatus(t, ts2.URL, id, StatusDone); !st.Recovered {
			t.Fatalf("job %s lost its recovered flag at completion", id)
		}
	}
	if live := jr2.Live(); live != 0 {
		t.Fatalf("journal still tracks %d live jobs after all completed", live)
	}

	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"conspec_served_jobs_recovered_total 3\n",
		"conspec_served_journal_live_jobs 0\n",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestCancelQueuedJobIsDurable: a queued job canceled over the API must not
// be resurrected by recovery, even if the process dies before a worker ever
// dequeues it.
func TestCancelQueuedJobIsDurable(t *testing.T) {
	dir := t.TempDir()
	jr, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fake := newFakeExec()
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, Journal: jr}, fake)
	running := submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started
	queued := submit(t, ts.URL, JobSpec{Suite: "scope"})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Crash before the worker reaches the canceled job.
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	jr2, recovered, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if len(recovered) != 1 || recovered[0].Job != running.ID {
		t.Fatalf("recovered %+v, want exactly the running job %s", recovered, running.ID)
	}
}

// TestJournalRejectsUnreadableSpec: a journaled spec that no longer
// unmarshals or validates is failed cleanly at recovery, not crash-looped.
func TestRecoveryFailsInvalidSpecsCleanly(t *testing.T) {
	dir := t.TempDir()
	jr, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jr.Append(journal.OpSubmitted, "jgone", json.RawMessage(`{"suite":"no-such-suite"}`), "")
	jr.Append(journal.OpSubmitted, "jrot", json.RawMessage(`{"suite":`), "")
	jr.Close()

	jr2, recovered, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jr2, Recovered: recovered})
	defer s.Close()
	if q, r := s.counts(); q != 0 || r != 0 {
		t.Fatalf("invalid specs were queued: queued %d running %d", q, r)
	}
	jr2.Close()

	// Both were journaled as failed: nothing to recover on the next open.
	jr3, recovered, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr3.Close()
	if len(recovered) != 0 {
		t.Fatalf("invalid specs still live after recovery: %+v", recovered)
	}
}

func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		ahead, workers int
		avg            time.Duration
		fallback, want int
	}{
		{1, 2, 0, 2, 2},                      // no history: fallback
		{5, 4, 0, 10, 10},                    // no history: fallback
		{1, 1, 4 * time.Second, 2, 4},        // one job, one worker
		{1, 2, 4 * time.Second, 2, 2},        // pool halves the wait
		{10, 2, 4 * time.Second, 10, 20},     // backlog scales it
		{1, 8, 100 * time.Millisecond, 2, 1}, // rounds up to the 1s floor
		{500, 1, 30 * time.Second, 10, 600},  // clamped to 10 minutes
		{0, 0, 2 * time.Second, 2, 2},        // degenerate inputs normalize
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.ahead, c.workers, c.avg, c.fallback); got != c.want {
			t.Errorf("retryAfterSecs(%d, %d, %v, %d) = %d, want %d",
				c.ahead, c.workers, c.avg, c.fallback, got, c.want)
		}
	}
}

// TestRetryAfterDerivedFromLatency: once a job has completed, 429 responses
// carry an estimate from observed latency instead of the hardcoded fallback.
func TestRetryAfterDerivedFromLatency(t *testing.T) {
	fake := newFakeExec()
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1}, fake)

	first := submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started
	fake.releaseAll(1)
	waitStatus(t, ts.URL, first.ID, StatusDone)

	// Worker busy + queue full again.
	submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started
	submit(t, ts.URL, JobSpec{Suite: "lru"})

	body, _ := json.Marshal(JobSpec{Suite: "lru"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// The fake job completed in well under a second, so the derived
	// estimate is the 1-second floor — distinguishable from the 2-second
	// no-history fallback.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want the derived 1s estimate", ra)
	}
	fake.releaseAll(2)
}

// TestEventsCarryEpoch: every SSE frame is stamped with the server process
// epoch, the signal reconnecting watchers use to detect a restart.
func TestEventsCarryEpoch(t *testing.T) {
	fake := newFakeExec()
	s, ts := newTestServer(t, Config{Workers: 1}, fake)
	st := submit(t, ts.URL, JobSpec{Suite: "lru"})
	<-fake.started
	fake.releaseAll(1)
	waitStatus(t, ts.URL, st.ID, StatusDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range events {
		if ev.Epoch != s.epoch {
			t.Fatalf("event %+v carries epoch %q, want server epoch %q", ev, ev.Epoch, s.epoch)
		}
	}
}

// TestSubmitDuringDrainHammer races a storm of submissions against Drain:
// every 202 job must reach a terminal state (never accepted-then-dropped),
// every rejection must be a clean 503 or 429.
func TestSubmitDuringDrainHammer(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 8, Executor: execFunc(func(ctx context.Context, j ExecJob) (*report.Report, exp.Stats, int, error) {
		return report.New(), exp.Stats{}, 0, nil
	})})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		mu       sync.Mutex
		accepted []string
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(JobSpec{Suite: "lru"})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server socket closing down
				}
				var st JobStatus
				code := resp.StatusCode
				if code == http.StatusAccepted {
					json.NewDecoder(resp.Body).Decode(&st)
				}
				resp.Body.Close()
				switch code {
				case http.StatusAccepted:
					mu.Lock()
					accepted = append(accepted, st.ID)
					mu.Unlock()
				case http.StatusServiceUnavailable, http.StatusTooManyRequests:
				default:
					t.Errorf("submission during drain: status %d", code)
					return
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(accepted) == 0 {
		t.Fatal("hammer accepted no jobs; the race was never exercised")
	}
	for _, id := range accepted {
		st := getJob(t, ts.URL, id)
		if !st.Status.Terminal() {
			t.Fatalf("accepted job %s left in %s after drain", id, st.Status)
		}
	}
}

// TestStoreMetricsExposition: a server over a stats-capable disk cache and
// a journal exports both stores' gauges through /metrics.
func TestStoreMetricsExposition(t *testing.T) {
	cacheDir := t.TempDir()
	store, err := diskcache.OpenWith(cacheDir, diskcache.Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	jr, recovered, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()

	fake := newFakeExec()
	_, ts := newTestServer(t, Config{Workers: 1, Cache: store, Journal: jr, Recovered: recovered}, fake)
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
		"conspec_served_cache_disk_gets_total ",
		"conspec_served_cache_disk_hits_total ",
		"conspec_served_cache_disk_bytes ",
		"conspec_served_cache_disk_entries ",
		"conspec_served_cache_disk_evictions_total ",
		"conspec_served_cache_disk_quarantined_total ",
		"conspec_served_journal_wal_bytes ",
		"conspec_served_journal_appends_total ",
		"conspec_served_journal_compactions_total ",
		"conspec_served_jobs_recovered_total 0\n",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}
