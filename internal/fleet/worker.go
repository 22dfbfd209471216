package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"conspec/internal/buildinfo"
	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/serve"
	"conspec/internal/serve/client"
)

// WorkerOptions parameterizes a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name is the stable worker name to register under (empty = the
	// coordinator assigns one).
	Name string
	// Slots is how many leases to execute concurrently (default 1).
	Slots int
	// SimWorkers bounds per-run simulation parallelism, like the
	// standalone server's -sim-workers.
	SimWorkers int
	// RunTimeout bounds one simulation, like the standalone server's
	// -run-timeout. Zero means no bound.
	RunTimeout time.Duration
	// LocalCache is the worker's local result tier (typically a
	// *diskcache.Store); it is layered under a RemoteStore reaching the
	// coordinator. May be nil (remote-only).
	LocalCache ResultStore
	// Identity overrides the binary's build identity (tests only).
	Identity string
	// ProgressFlush is the progress batching interval (default 300ms).
	ProgressFlush time.Duration
	// Logf, when non-nil, receives one line per worker event.
	Logf func(format string, args ...any)

	// execOverride replaces the exp.Runner execution path (tests only).
	execOverride func(ctx context.Context, spec serve.JobSpec, emit func(exp.ProgressEvent)) (*report.Report, exp.Stats, int, error)
}

// Worker is one fleet execution node: it registers with the coordinator,
// heartbeats, long-polls for leases on each slot, executes them with a
// local exp.Runner against a tiered local+remote result store, streams
// progress back, and publishes the terminal result. All traffic is
// outbound; a worker needs no inbound port.
type Worker struct {
	opts WorkerOptions
	// coord bounds each attempt at workerCallTimeout (register, progress,
	// result); poll is bounded by the session alone (heartbeat and the lease
	// long-poll).
	coord, poll client.Client
	remote      *RemoteStore
	store       *TieredStore

	mu       sync.Mutex
	id       string
	draining bool
	active   map[string]*activeLease
	counters map[string]uint64
}

// activeLease tracks one executing lease's cancel hooks.
type activeLease struct {
	cancel        context.CancelFunc
	coordCanceled bool // coordinator asked for the cancel (vs worker shutdown)
}

// NewWorker builds a Worker; Run drives it.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Identity == "" {
		opts.Identity = buildinfo.Get().Identity()
	}
	if opts.Slots < 1 {
		opts.Slots = 1
	}
	if opts.ProgressFlush <= 0 {
		opts.ProgressFlush = 300 * time.Millisecond
	}
	base := strings.TrimRight(opts.Coordinator, "/")
	w := &Worker{
		opts:     opts,
		coord:    client.Client{BaseURL: base, HTTPClient: &http.Client{Timeout: workerCallTimeout}},
		poll:     client.Client{BaseURL: base},
		remote:   NewRemoteStore(base, nil),
		active:   make(map[string]*activeLease),
		counters: make(map[string]uint64),
	}
	w.store = &TieredStore{Local: opts.LocalCache, Remote: w.remote}
	return w
}

// workerCallTimeout bounds one attempt of a registration, a progress flush
// or a result post, so a hung coordinator cannot wedge a slot.
const workerCallTimeout = 10 * time.Second

// workerBackoff is the pacing of the worker's retried calls and of its lease
// poll after a failure: 200 ms doubling to 5 s.
var workerBackoff = client.RetryPolicy{BaseDelay: 200 * time.Millisecond, MaxDelay: 5 * time.Second}

// post makes a retried coordinator call on the timed client, with up to
// attempts tries, logging each retry.
func (w *Worker) post(ctx context.Context, attempts int, path string, in, out any) error {
	c := w.coord
	c.Retry = workerBackoff
	c.Retry.MaxAttempts = attempts
	c.Retry.OnRetry = func(attempt int, d time.Duration, err error) {
		w.logf("fleet: %s: %v (retry %d in %v)", path, err, attempt, d.Round(time.Millisecond))
	}
	_, err := c.Call(ctx, http.MethodPost, path, in, out)
	return err
}

// isStatus reports whether err is the coordinator answering code.
func isStatus(err error, code int) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == code
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// ID returns the coordinator-assigned worker id ("" before registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Run registers and serves leases until ctx is canceled, re-registering
// whenever the coordinator forgets the worker (coordinator restart, or
// a heartbeat gap long enough to be declared lost). It returns nil on a
// clean shutdown and a terminal error when registration is refused: an
// *IdentityMismatchError when the coordinator runs another build, or the
// *client.APIError of any other definitive answer (a 404 from a server that
// is not a coordinator). Transport failures, 429 and 503 are retried.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		reg, err := w.register(ctx)
		if err != nil {
			var mismatch *IdentityMismatchError
			if errors.As(err, &mismatch) {
				return err
			}
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		w.mu.Lock()
		w.id = reg.Worker
		w.draining = false
		w.mu.Unlock()
		hb := time.Duration(reg.HeartbeatMS) * time.Millisecond
		if hb <= 0 {
			hb = 2 * time.Second
		}
		w.logf("fleet: registered as %s (heartbeat %v, %d slots)", reg.Worker, hb, w.opts.Slots)
		w.session(ctx, reg.Worker, hb)
		if ctx.Err() != nil {
			return nil
		}
		w.logf("fleet: session with coordinator ended; re-registering")
	}
}

// session runs one registration's heartbeat loop and slot loops until the
// coordinator answers 410 (stale) or ctx is canceled. Active leases are
// always finished and posted (possibly as abandoned) before it returns.
func (w *Worker) session(ctx context.Context, id string, hb time.Duration) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1 + w.opts.Slots)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(sctx, cancel, id, hb)
	}()
	for i := 0; i < w.opts.Slots; i++ {
		go func() {
			defer wg.Done()
			w.leaseLoop(sctx, cancel, id)
		}()
	}
	wg.Wait()
}

// heartbeatLoop beats every hb, pushing the counter snapshot and applying
// the reply's control signals. A 410 cancels the session (stale id).
func (w *Worker) heartbeatLoop(ctx context.Context, stale context.CancelFunc, id string, hb time.Duration) {
	t := time.NewTicker(hb)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		req := HeartbeatRequest{Worker: id, Metrics: w.metricsSnapshot()}
		var resp HeartbeatResponse
		_, err := w.poll.Call(ctx, http.MethodPost, "/fleet/v1/heartbeat", req, &resp)
		if isStatus(err, http.StatusGone) {
			w.logf("fleet: coordinator no longer knows us; re-registering")
			stale()
			return
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.logf("fleet: heartbeat: %v", err)
			continue
		}
		if resp.Draining {
			w.mu.Lock()
			was := w.draining
			w.draining = true
			w.mu.Unlock()
			if !was {
				w.logf("fleet: draining (finishing active leases, taking no new ones)")
			}
		}
		for _, leaseID := range resp.Canceled {
			w.cancelLease(leaseID)
		}
	}
}

// cancelLease aborts an active lease at the coordinator's request.
func (w *Worker) cancelLease(leaseID string) {
	w.mu.Lock()
	al := w.active[leaseID]
	if al != nil {
		al.coordCanceled = true
	}
	w.mu.Unlock()
	if al != nil {
		w.logf("fleet: lease %s canceled by coordinator", leaseID)
		al.cancel()
	}
}

// leaseLoop long-polls one slot for grants and executes them. A poll is a
// single attempt: retrying one whose grant response was lost would lease a
// second job to the slot. Failures instead pace the next poll.
func (w *Worker) leaseLoop(ctx context.Context, stale context.CancelFunc, id string) {
	for fails := 0; ctx.Err() == nil; {
		if w.isDraining() {
			// Drained: stop asking. The heartbeat loop keeps the session
			// alive so active leases on other slots can finish.
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Second):
			}
			continue
		}
		var grant LeaseGrant
		granted, err := w.poll.Call(ctx, http.MethodPost, "/fleet/v1/lease", LeaseRequest{Worker: id, WaitMS: 5000}, &grant)
		switch {
		case isStatus(err, http.StatusGone):
			stale()
			return
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			w.logf("fleet: lease poll: %v", err)
			if workerBackoff.Backoff(ctx, fails, err) != nil {
				return
			}
			fails++
		case granted:
			fails = 0
			w.execute(ctx, id, grant)
		default:
			fails = 0 // 204: the poll window passed without work
		}
	}
}

// execute runs one granted lease end to end: progress batching, the
// simulation itself against the tiered store, and the terminal result
// post. ctx canceling mid-run abandons the lease (the job is re-queued
// immediately); a coordinator cancel posts canceled.
func (w *Worker) execute(ctx context.Context, workerID string, grant LeaseGrant) {
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	al := &activeLease{cancel: cancel}
	w.mu.Lock()
	w.active[grant.Lease] = al
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.active, grant.Lease)
		w.mu.Unlock()
	}()

	w.logf("fleet: executing lease %s (gen %d)", grant.Lease, grant.Gen)
	pb := newProgressBatcher(w, workerID, grant, al, w.opts.ProgressFlush)
	rep, stats, failedRuns, err := w.runSpec(lctx, grant.Spec, pb.add)
	pb.close() // final flush; stop the flusher before posting the result

	post := ResultPost{Worker: workerID, Gen: grant.Gen, Engine: stats, FailedRuns: failedRuns}
	switch {
	case err == nil:
		b, merr := json.Marshal(rep)
		if merr != nil {
			post.Status = ResultFailed
			post.Error = "marshal result document: " + merr.Error()
		} else {
			post.Status = ResultDone
			post.Report = b
		}
	case errors.Is(err, context.Canceled):
		w.mu.Lock()
		coord := al.coordCanceled
		w.mu.Unlock()
		if coord {
			post.Status = ResultCanceled
		} else {
			// Worker shutting down, not a job cancel: hand the lease back
			// so the coordinator re-queues it without waiting for the
			// heartbeat timeout. Finished simulations are already in the
			// coordinator's store, so no work is lost.
			post.Status = ResultAbandoned
		}
	default:
		post.Status = ResultFailed
		post.Error = err.Error()
	}

	w.postResult(grant.Lease, post)
	w.bump("leases_" + post.Status + "_total")
	w.bumpBy("runs_executed_total", stats.Executed)
	w.logf("fleet: lease %s %s (executed %d runs)", grant.Lease, post.Status, stats.Executed)
}

// runSpec is the execution seam: the real path goes through
// serve.ExecuteSpec with the tiered store as the runner cache.
func (w *Worker) runSpec(ctx context.Context, spec serve.JobSpec, emit func(exp.ProgressEvent)) (*report.Report, exp.Stats, int, error) {
	if w.opts.execOverride != nil {
		return w.opts.execOverride(ctx, spec, emit)
	}
	return serve.ExecuteSpec(ctx, spec, serve.ExecOptions{
		Cache:      w.store,
		SimWorkers: w.opts.SimWorkers,
		RunTimeout: w.opts.RunTimeout,
	}, emit)
}

// postResult publishes a terminal lease status. The session context is
// often already canceled here (shutdown posting abandoned), so it posts
// under a fresh context and tries three times — after that the
// heartbeat-timeout reaper covers us.
func (w *Worker) postResult(leaseID string, post ResultPost) {
	var reply ResultReply
	err := w.post(context.Background(), 3, "/fleet/v1/leases/"+leaseID+"/result", post, &reply)
	switch {
	case err != nil:
		w.logf("fleet: result post for lease %s: %v", leaseID, err)
	case !reply.Accepted:
		w.logf("fleet: result for lease %s ignored (stale generation)", leaseID)
	}
}

// register announces the worker, retrying transient failures until ctx
// ends. An identity 409 is terminal: a stale binary must not join the fleet.
func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	req := RegisterRequest{Name: w.opts.Name, Identity: w.opts.Identity, Slots: w.opts.Slots}
	var resp RegisterResponse
	err := w.post(ctx, math.MaxInt, "/fleet/v1/register", req, &resp)
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
		var mismatch IdentityMismatchError
		if json.Unmarshal(apiErr.Body, &mismatch) == nil && mismatch.CoordinatorIdentity != "" {
			return resp, &mismatch
		}
		return resp, fmt.Errorf("registration refused: %s", apiErr.Message)
	}
	return resp, err
}

func (w *Worker) isDraining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// bump / bumpBy maintain the worker's cumulative counters, pushed to the
// coordinator on every heartbeat and exposed there with a worker label.
func (w *Worker) bump(name string) { w.bumpBy(name, 1) }

func (w *Worker) bumpBy(name string, n uint64) {
	w.mu.Lock()
	w.counters[name] += n
	w.mu.Unlock()
}

// metricsSnapshot merges the manual counters with the store tiers' live
// traffic counts.
func (w *Worker) metricsSnapshot() map[string]uint64 {
	ts := w.store.Stats()
	rs := w.remote.Stats()
	w.mu.Lock()
	m := make(map[string]uint64, len(w.counters)+6)
	for k, v := range w.counters {
		m[k] = v
	}
	m["active_leases"] = uint64(len(w.active))
	w.mu.Unlock()
	m["cache_hits_local_total"] = ts.LocalHits
	m["cache_hits_remote_total"] = ts.RemoteHits
	m["remote_result_gets_total"] = rs.Gets
	m["remote_result_puts_total"] = rs.Puts
	m["remote_result_errors_total"] = rs.Errs
	return m
}

// progressBatcher batches a lease's engine progress events and flushes
// them to the coordinator on an interval from a single goroutine (which
// preserves emission order). A flush reply carrying Canceled aborts the
// lease, so client cancels propagate at flush latency, not heartbeat
// latency.
type progressBatcher struct {
	w        *Worker
	workerID string
	grant    LeaseGrant
	al       *activeLease

	mu   sync.Mutex
	buf  []exp.ProgressEvent
	stop chan struct{}
	done chan struct{}
}

func newProgressBatcher(w *Worker, workerID string, grant LeaseGrant, al *activeLease, every time.Duration) *progressBatcher {
	pb := &progressBatcher{
		w: w, workerID: workerID, grant: grant, al: al,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go pb.loop(every)
	return pb
}

// add enqueues one event; called from the runner's emit path (any
// goroutine).
func (pb *progressBatcher) add(ev exp.ProgressEvent) {
	pb.mu.Lock()
	pb.buf = append(pb.buf, ev)
	pb.mu.Unlock()
}

func (pb *progressBatcher) loop(every time.Duration) {
	defer close(pb.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			pb.flush()
		case <-pb.stop:
			pb.flush()
			return
		}
	}
}

func (pb *progressBatcher) flush() {
	pb.mu.Lock()
	events := pb.buf
	pb.buf = nil
	pb.mu.Unlock()
	if len(events) == 0 {
		return
	}
	var reply ProgressReply
	_, err := pb.w.coord.Call(context.Background(), http.MethodPost, "/fleet/v1/leases/"+pb.grant.Lease+"/progress",
		ProgressPost{Worker: pb.workerID, Gen: pb.grant.Gen, Events: events}, &reply)
	// Progress is best-effort (one attempt); results carry the truth.
	if err == nil && reply.Canceled {
		pb.w.cancelLease(pb.grant.Lease)
	}
}

// close flushes the remaining events and stops the flusher.
func (pb *progressBatcher) close() {
	select {
	case <-pb.stop:
	default:
		close(pb.stop)
	}
	<-pb.done
}
