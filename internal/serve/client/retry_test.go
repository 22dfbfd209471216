package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"conspec/internal/serve"
)

// fastRetry keeps test backoffs in the microsecond range.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch atomic.AddInt32(&calls, 1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"server is draining"}`, http.StatusServiceUnavailable)
		case 2:
			http.Error(w, `{"error":"job queue is full"}`, http.StatusTooManyRequests)
		default:
			fmt.Fprint(w, `{"id":"j1","status":"queued"}`)
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(5)
	var retries []int
	c.Retry.OnRetry = func(attempt int, d time.Duration, err error) { retries = append(retries, attempt) }

	st, err := c.Submit(context.Background(), serve.JobSpec{Suite: "lru"})
	if err != nil {
		t.Fatalf("submit after transients: %v", err)
	}
	if st.ID != "j1" {
		t.Fatalf("submit returned %+v", st)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if len(retries) != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", len(retries))
	}

	// Metrics and Trace ride the same retrying call: each first meets a 503.
	var raw int32
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&raw, 1)%2 == 1 {
			http.Error(w, `{"error":"server is draining"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, r.URL.Path)
	}))
	defer ts2.Close()
	c2 := New(ts2.URL)
	c2.Retry = fastRetry(2)
	if text, err := c2.Metrics(context.Background()); err != nil || text != "/metrics" {
		t.Fatalf("metrics after a 503 = %q, %v", text, err)
	}
	var doc strings.Builder
	if err := c2.Trace(context.Background(), "j1", &doc); err != nil || doc.String() != "/v1/jobs/j1/trace" {
		t.Fatalf("trace after a 503 = %q, %v", doc.String(), err)
	}
	if got := atomic.LoadInt32(&raw); got != 4 {
		t.Fatalf("server saw %d calls, want 4 (one retry each)", got)
	}
}

// TestRetryAttemptTimeout: one attempt running out HTTPClient.Timeout is
// transient and retried, while the caller's own deadline is not.
func TestRetryAttemptTimeout(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		fmt.Fprint(w, `{"id":"j1","status":"queued"}`)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Timeout: 50 * time.Millisecond}, Retry: fastRetry(3)}
	if st, err := c.Get(context.Background(), "j1"); err != nil || st.ID != "j1" {
		t.Fatalf("get after a timed-out attempt = %+v, %v", st, err)
	}
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}

	atomic.StoreInt32(&calls, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c.HTTPClient = nil
	if _, err := c.Get(ctx, "j1"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("get past the caller's deadline: %v, want DeadlineExceeded", err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("caller's deadline was retried: %d calls", got)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, `{"error":"job queue is full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(3)
	_, err := c.Submit(context.Background(), serve.JobSpec{Suite: "lru"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err %v, want 429 APIError", err)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("server saw %d calls, want exactly MaxAttempts=3", got)
	}
}

func TestNonRetryableFailsFast(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, `{"error":"unknown suite"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(5)
	if _, err := c.Submit(context.Background(), serve.JobSpec{Suite: "nope"}); err == nil {
		t.Fatal("400 did not surface")
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("400 was retried: %d calls", got)
	}
}

func TestRetryDisabledByDefault(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, `{"error":"server is draining"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL) // zero RetryPolicy
	if _, err := c.Submit(context.Background(), serve.JobSpec{Suite: "lru"}); err == nil {
		t.Fatal("503 did not surface")
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("zero-value policy retried: %d calls", got)
	}
}

func TestRetryDelayHonorsRetryAfter(t *testing.T) {
	p := fastRetry(5)
	err := &APIError{StatusCode: 429, RetryAfter: 7 * time.Second}
	if d := p.delay(0, err); d != 7*time.Second {
		t.Fatalf("delay with Retry-After = %v, want 7s", d)
	}
	// Without Retry-After: jittered exponential within [base/2, max].
	for attempt := 0; attempt < 6; attempt++ {
		d := p.delay(attempt, errors.New("transient"))
		if d < p.BaseDelay/2 || d > p.MaxDelay {
			t.Fatalf("delay(attempt=%d) = %v outside [%v/2, %v]", attempt, d, p.BaseDelay, p.MaxDelay)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	if retryable(nil) {
		t.Fatal("nil is retryable")
	}
	if retryable(context.Canceled) || retryable(fmt.Errorf("wrap: %w", context.DeadlineExceeded)) {
		t.Fatal("context errors are retryable")
	}
	if retryable(&APIError{StatusCode: 404}) || retryable(&APIError{StatusCode: 400}) {
		t.Fatal("definitive 4xx is retryable")
	}
	if !retryable(&APIError{StatusCode: 429}) || !retryable(&APIError{StatusCode: 503}) {
		t.Fatal("429/503 not retryable")
	}
	if !retryable(errors.New("connection refused")) {
		t.Fatal("transport error not retryable")
	}
}

// sseHandler scripts one /events connection: each call returns the frames
// for that connection attempt, closing the stream afterwards.
func sseHandler(t *testing.T, conns *int32, frames func(conn int32) []string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		conn := atomic.AddInt32(conns, 1)
		w.Header().Set("Content-Type", "text/event-stream")
		for _, f := range frames(conn) {
			fmt.Fprintf(w, "data: %s\n\n", f)
		}
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
	}
}

// TestWatchReconnectSameEpoch: the stream drops mid-job; on reconnect the
// server (same process) replays history, and the client delivers only the
// frames it has not seen.
func TestWatchReconnectSameEpoch(t *testing.T) {
	var conns int32
	ts := httptest.NewServer(sseHandler(t, &conns, func(conn int32) []string {
		if conn == 1 {
			return []string{
				`{"seq":0,"epoch":"aaaa","type":"state","status":"queued"}`,
				`{"seq":1,"epoch":"aaaa","type":"state","status":"running"}`,
				// connection drops here, no terminal frame
			}
		}
		return []string{
			`{"seq":0,"epoch":"aaaa","type":"state","status":"queued"}`,
			`{"seq":1,"epoch":"aaaa","type":"state","status":"running"}`,
			`{"seq":2,"epoch":"aaaa","type":"state","status":"done"}`,
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(4)
	var seqs []int
	err := c.Watch(context.Background(), "j1", func(ev serve.Event) error {
		seqs = append(seqs, ev.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if fmt.Sprint(seqs) != "[0 1 2]" {
		t.Fatalf("delivered seqs %v, want [0 1 2] (replay deduped)", seqs)
	}
	if atomic.LoadInt32(&conns) != 2 {
		t.Fatalf("%d connections, want 2", conns)
	}
}

// TestWatchReconnectAcrossRestart: the server restarts (new epoch) and the
// recovered job's history restarts at seq 0. The client must deliver the
// new history in full rather than dropping frames with "old" seq numbers.
func TestWatchReconnectAcrossRestart(t *testing.T) {
	var conns int32
	ts := httptest.NewServer(sseHandler(t, &conns, func(conn int32) []string {
		if conn == 1 {
			return []string{
				`{"seq":0,"epoch":"aaaa","type":"state","status":"queued"}`,
				`{"seq":1,"epoch":"aaaa","type":"state","status":"running"}`,
			}
		}
		return []string{
			`{"seq":0,"epoch":"bbbb","type":"state","status":"queued"}`,
			`{"seq":1,"epoch":"bbbb","type":"state","status":"running"}`,
			`{"seq":2,"epoch":"bbbb","type":"state","status":"done"}`,
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(4)
	var got []string
	err := c.Watch(context.Background(), "j1", func(ev serve.Event) error {
		got = append(got, fmt.Sprintf("%s:%d", ev.Epoch, ev.Seq))
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	want := "[aaaa:0 aaaa:1 bbbb:0 bbbb:1 bbbb:2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestWatchBudgetRefreshesOnProgress: reconnect attempts are only bounded
// while the stream makes no progress; each delivered frame resets them, so
// a long job survives many well-spaced restarts.
func TestWatchBudgetRefreshesOnProgress(t *testing.T) {
	var conns int32
	ts := httptest.NewServer(sseHandler(t, &conns, func(conn int32) []string {
		if conn < 5 {
			// Each connection yields exactly one fresh frame, then drops.
			return []string{fmt.Sprintf(`{"seq":%d,"epoch":"aaaa","type":"progress"}`, conn-1)}
		}
		return []string{`{"seq":9,"epoch":"aaaa","type":"state","status":"done"}`}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(2) // budget of ONE reconnect without progress
	var n int
	err := c.Watch(context.Background(), "j1", func(ev serve.Event) error { n++; return nil })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if n != 5 || atomic.LoadInt32(&conns) != 5 {
		t.Fatalf("delivered %d frames over %d conns, want 5 over 5", n, conns)
	}
}

// TestWatchCallbackErrorStopsReconnect: fn's error surfaces immediately,
// never triggering a reconnect.
func TestWatchCallbackErrorStopsReconnect(t *testing.T) {
	var conns int32
	ts := httptest.NewServer(sseHandler(t, &conns, func(conn int32) []string {
		return []string{`{"seq":0,"epoch":"aaaa","type":"state","status":"queued"}`}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(5)
	boom := errors.New("boom")
	if err := c.Watch(context.Background(), "j1", func(serve.Event) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("watch err %v, want the callback's error", err)
	}
	if atomic.LoadInt32(&conns) != 1 {
		t.Fatalf("callback error caused %d connections, want 1", conns)
	}
}

// TestWatchNoRetryPreservesOldBehavior: with the zero policy a dropped
// stream is an error, exactly as before.
func TestWatchNoRetryPreservesOldBehavior(t *testing.T) {
	var conns int32
	ts := httptest.NewServer(sseHandler(t, &conns, func(conn int32) []string {
		return []string{`{"seq":0,"epoch":"aaaa","type":"state","status":"queued"}`}
	}))
	defer ts.Close()

	c := New(ts.URL)
	err := c.Watch(context.Background(), "j1", func(serve.Event) error { return nil })
	if err == nil {
		t.Fatal("dropped stream did not error with retries disabled")
	}
	if atomic.LoadInt32(&conns) != 1 {
		t.Fatalf("%d connections with retries disabled, want 1", conns)
	}
}
