// Package client is the Go client for the conspec-served HTTP API and the
// service tier's only HTTP caller: conspec-ctl, the fleet worker and the
// fleet's remote result store all go through Client.Call. It keeps the
// wire types (serve.JobSpec, serve.JobStatus, serve.Event) as the single
// source of truth for both sides.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"conspec/internal/serve"
)

// Client talks to one conspec-served instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Its Timeout, if set,
	// bounds each attempt of a call. Watch streams indefinitely, so a
	// client that watches must not set one; bound watches with the context
	// instead.
	HTTPClient *http.Client
	// Retry, when enabled (MaxAttempts > 1), makes every request retry
	// transient failures — transport errors, 429 queue-full, 503 draining —
	// with exponential backoff, and makes Watch reconnect dropped event
	// streams, resuming where it left off. The zero value disables retries
	// (one attempt, fail fast), preserving bare-Client behavior.
	Retry RetryPolicy
}

// RetryPolicy shapes the client's reaction to transient failures.
type RetryPolicy struct {
	// MaxAttempts bounds tries per request (and consecutive reconnects per
	// watch without progress). <= 1 means a single attempt, no retries.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 200ms). Each further
	// attempt doubles it, up to MaxDelay (default 10s); the actual sleep is
	// jittered to [d/2, d] so synchronized clients fan out. A server-sent
	// Retry-After overrides the computed delay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OnRetry, when non-nil, observes each retry before its backoff sleep
	// (for "-watch reconnecting in 2s: connection refused" style UX).
	OnRetry func(attempt int, delay time.Duration, err error)
}

// DefaultRetry is the policy conspec-ctl uses: 6 attempts, 200ms..10s
// exponential backoff — enough to ride out a server restart.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 6, BaseDelay: 200 * time.Millisecond, MaxDelay: 10 * time.Second}
}

// delay computes the backoff before attempt (0-based) retries, honoring the
// server's Retry-After when err carries one.
func (p RetryPolicy) delay(attempt int, err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
		return apiErr.RetryAfter
	}
	d := p.BaseDelay
	if d <= 0 {
		d = 200 * time.Millisecond
	}
	maxD := p.MaxDelay
	if maxD <= 0 {
		maxD = 10 * time.Second
	}
	for i := 0; i < attempt && d < maxD; i++ {
		d *= 2
	}
	if d > maxD {
		d = maxD
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Backoff waits out the delay before retry number attempt (0-based) of a
// call that failed with err, reporting it to OnRetry first. It returns
// ctx.Err() if ctx ends before the delay does. Loops that must not retry
// inside one call (a fleet worker's lease poll) pace themselves with it.
func (p RetryPolicy) Backoff(ctx context.Context, attempt int, err error) error {
	d := p.delay(attempt, err)
	if p.OnRetry != nil {
		p.OnRetry(attempt+1, d, err)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryable reports whether err is worth retrying: retryable API rejections
// (429/503) and transport-level failures, but never context cancellation or
// definitive server answers (4xx/5xx others).
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.IsRetryable()
	}
	// Everything else came from the transport (connection refused during a
	// restart, reset mid-response, ...) — the canonical transient case.
	return true
}

// transient is retryable plus a case only the caller's ctx can tell apart:
// a DeadlineExceeded while ctx is still live is one attempt running out its
// HTTPClient.Timeout, not the caller giving up.
func transient(ctx context.Context, err error) bool {
	return retryable(err) || ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded)
}

// New returns a client for baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx response, carrying the server's error body.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the parsed Retry-After header, if the server sent one
	// (429 queue-full and 503 draining responses do).
	RetryAfter time.Duration
	// Body is the raw error body (at most 64 KB), for callers whose
	// endpoint answers with a typed error document.
	Body []byte
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.StatusCode)
	}
	return fmt.Sprintf("server: HTTP %d", e.StatusCode)
}

// IsRetryable reports whether the request can be retried later (queue full
// or draining).
func (e *APIError) IsRetryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

func apiErr(resp *http.Response) error {
	e := &APIError{StatusCode: resp.StatusCode}
	e.Body, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(e.Body, &body) == nil {
		e.Message = body.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		var secs int
		if _, err := fmt.Sscanf(ra, "%d", &secs); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// Call sends in (when non-nil) as JSON to path and decodes a 2xx reply into
// out (when non-nil), retrying transient failures per c.Retry. A *[]byte out
// receives the raw body instead. A 204 No Content leaves out untouched and
// reports false; every other 2xx reports true. A non-2xx reply is an
// *APIError.
//
// A POST retried after a transport error may have been applied by the
// server (the response was lost, not necessarily the request); for job
// submission that at worst queues a duplicate job, which the shared result
// cache serves without re-simulation. Calls that must not be repeated use a
// Client whose Retry is the zero policy.
func (c *Client) Call(ctx context.Context, method, path string, in, out any) (bool, error) {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return false, err
		}
	}
	for attempt := 0; ; attempt++ {
		body, err := c.callOnce(ctx, method, path, data, out)
		if err == nil {
			return body, nil
		}
		if attempt+1 >= c.Retry.MaxAttempts || !transient(ctx, err) {
			return false, err
		}
		if c.Retry.Backoff(ctx, attempt, err) != nil {
			return false, err // the last real failure, not the cancellation
		}
	}
}

func (c *Client) callOnce(ctx context.Context, method, path string, data []byte, out any) (bool, error) {
	resp, err := c.send(ctx, method, path, data)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return false, nil
	}
	switch o := out.(type) {
	case nil:
	case *[]byte:
		*o, err = io.ReadAll(resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	// Drain what the decoder left (a trailing newline, a chunked trailer)
	// so the connection goes back to the pool.
	io.Copy(io.Discard, resp.Body)
	return true, err
}

// send issues one request and returns the 2xx response; a non-2xx reply is
// read into an *APIError and closed.
func (c *Client) send(ctx context.Context, method, path string, data []byte) (*http.Response, error) {
	var body io.Reader
	if data != nil {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiErr(resp)
	}
	return resp, nil
}

// call is Call for the job API, where no endpoint answers 204.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	_, err := c.Call(ctx, method, path, in, out)
	return err
}

// Submit queues a job and returns its initial status.
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.call(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Get fetches one job, including the result document once it is done.
func (c *Client) Get(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// List fetches all jobs, newest first (no result bodies).
func (c *Client) List(ctx context.Context) ([]serve.JobStatus, error) {
	var out []serve.JobStatus
	err := c.call(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Trace fetches a job's span trace as Chrome trace-event JSON (the raw
// document, loadable in Perfetto) and writes it to w. The document is read
// whole before any of it is written, so a retried fetch never writes twice.
func (c *Client) Trace(ctx context.Context, id string, w io.Writer) error {
	var doc []byte
	if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &doc); err != nil {
		return err
	}
	_, err := w.Write(doc)
	return err
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var text []byte
	err := c.call(ctx, http.MethodGet, "/metrics", nil, &text)
	return string(text), err
}

// callbackError marks an error that came from the caller's fn, which must
// surface immediately rather than trigger a reconnect.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }

// Watch streams a job's events, calling fn for each (history replay first,
// then live frames). It returns nil when the stream ends with a terminal
// state event, the first non-nil error from fn, or the transport error.
//
// With Retry enabled, a dropped stream is reconnected with backoff and
// resumed from the last event seen: the server replays each job's full
// history on (re)subscribe, and every frame carries (epoch, seq), so the
// client skips frames it already delivered — unless the epoch changed,
// which means the server restarted and the history itself restarted (the
// job re-executed after journal recovery), in which case the replay is
// delivered in full. Each delivered event refreshes the reconnect budget;
// MaxAttempts bounds consecutive attempts without progress.
func (c *Client) Watch(ctx context.Context, id string, fn func(serve.Event) error) error {
	lastSeen := -1
	epoch := ""
	attempt := 0
	for {
		delivered, terminal, err := c.watchOnce(ctx, id, &epoch, &lastSeen, fn)
		if terminal {
			return nil
		}
		var cb *callbackError
		if errors.As(err, &cb) {
			return cb.err
		}
		if err == nil {
			// Clean EOF without a terminal frame: the server shut the stream
			// down (e.g. it exited). Retryable — the job may be journaled
			// and recovered by the next server.
			err = fmt.Errorf("event stream ended before the job finished")
		}
		if delivered > 0 {
			attempt = 0
		}
		if attempt+1 >= c.Retry.MaxAttempts || !transient(ctx, err) {
			return err
		}
		if c.Retry.Backoff(ctx, attempt, err) != nil {
			return err
		}
		attempt++
	}
}

// watchOnce consumes a single event-stream connection, delivering frames
// beyond (*epoch, *lastSeen) and advancing them. It returns how many events
// it delivered and whether the stream reached a terminal frame.
func (c *Client) watchOnce(ctx context.Context, id string, epoch *string, lastSeen *int, fn func(serve.Event) error) (delivered int, terminal bool, err error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// Frames are small: let the buffer start at the scanner's default and
	// grow only as far as a frame needs.
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue // event:/comment/blank lines
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return delivered, false, fmt.Errorf("bad event frame: %w", err)
		}
		if ev.Epoch != *epoch {
			// A different server process: its history is not ours, however
			// the seq numbers line up. Deliver its replay from the start.
			*epoch, *lastSeen = ev.Epoch, -1
		}
		if ev.Seq <= *lastSeen {
			continue // replayed history we already delivered
		}
		*lastSeen = ev.Seq
		delivered++
		if err := fn(ev); err != nil {
			return delivered, false, &callbackError{err: err}
		}
		if ev.Terminal() {
			return delivered, true, nil
		}
	}
	return delivered, false, sc.Err()
}
