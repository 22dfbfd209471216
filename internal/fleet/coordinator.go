package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"conspec/internal/buildinfo"
	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/pipeline"
	"conspec/internal/serve"
	"conspec/internal/serve/journal"
)

// CoordinatorOptions parameterizes a Coordinator.
type CoordinatorOptions struct {
	// Identity is the coordinator binary's build identity; registrations
	// with a different identity are refused with 409 (a mismatched binary
	// would poison the content-addressed result store). Defaults to the
	// running binary's buildinfo identity.
	Identity string
	// Store is the coordinator's persistent result store, served to
	// workers via GET/PUT /fleet/v1/results/{key}; a job whose runs it
	// holds is answered from it without a lease. May be nil (workers then
	// only have their local caches; kill -9 durability is lost).
	Store ResultStore
	// Journal, when non-nil, receives OpLeased/OpRequeued records so lease
	// state survives a coordinator crash (the serve layer already journals
	// submit/terminal transitions on the same WAL).
	Journal *journal.Journal
	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 2s); HeartbeatTimeout is how long a silent worker stays
	// registered before it is declared lost and its leases re-queued
	// (default 3× the interval).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// LeaseWait caps how long POST /fleet/v1/lease long-polls for work
	// (default 10s); workers may ask for less.
	LeaseWait time.Duration
	// MaxRequeues bounds how many times one job is re-queued after worker
	// deaths before it fails terminally (default 3).
	MaxRequeues int
	// Logf, when non-nil, receives one line per fleet event.
	Logf func(format string, args ...any)
}

// Coordinator owns the fleet: the worker registry, the lease table, and
// the remote side of the result store. It implements serve.Executor, so a
// serve.Server built with Config.Executor pointing here keeps its whole
// public API while execution happens on leased workers. Create with
// NewCoordinator, wrap the server's handler with Handler, stop with Close.
type Coordinator struct {
	opts CoordinatorOptions

	mu      sync.Mutex
	workers map[string]*workerState
	leases  map[string]*lease // live (pending|leased) by lease id
	byKey   map[string]*lease // job-spec coalescing
	pending []*lease          // FIFO; re-queued leases go to the front
	wake    chan struct{}     // closed+replaced when pending grows

	// counters (under mu)
	resolved    uint64
	coalesced   uint64
	requeued    uint64
	workersLost uint64
	resultGets  uint64
	resultHits  uint64
	resultPuts  uint64

	closed chan struct{}
	reaped chan struct{}
}

// workerState is the coordinator's record of one registered worker.
type workerState struct {
	id         string
	slots      int
	registered time.Time
	lastBeat   time.Time
	draining   bool
	lost       bool
	active     int
	done       uint64
	failed     uint64
	metrics    map[string]uint64 // last heartbeat-pushed counters
}

// leaseState is a lease's position in its lifecycle.
type leaseState int

const (
	leasePending leaseState = iota // queued, waiting for a worker
	leaseLeased                    // executing on lease.worker
	leaseDone                      // terminal; result recorded
)

// attachment is one serve job riding a lease (the first submitter plus
// any coalesced duplicates).
type attachment struct {
	emit      func(exp.ProgressEvent)
	setWorker func(string)
}

// lease is one unit of fleet work: a job spec waiting for, or executing
// on, a worker.
type lease struct {
	id        string // == the first submitter's job id
	key       string
	spec      serve.JobSpec
	recovered bool

	state    leaseState
	worker   string
	gen      int
	requeues int
	// cancelRequested is set when every attached job has gone away; the
	// holding worker learns at its next progress flush or heartbeat.
	cancelRequested bool

	// attach holds the jobs riding the lease; when the last one is
	// released, the lease is canceled.
	attach []*attachment

	result *leaseResult
	done   chan struct{}
}

// leaseResult is the terminal outcome handed back to Execute.
type leaseResult struct {
	worker     string
	status     string
	report     *report.Report
	stats      exp.Stats
	failedRuns int
	errMsg     string
}

// NewCoordinator builds a Coordinator and starts its reaper loop.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.Identity == "" {
		opts.Identity = buildinfo.Get().Identity()
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 2 * time.Second
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 3 * opts.HeartbeatInterval
	}
	if opts.LeaseWait <= 0 {
		opts.LeaseWait = 10 * time.Second
	}
	if opts.MaxRequeues <= 0 {
		opts.MaxRequeues = 3
	}
	c := &Coordinator{
		opts:    opts,
		workers: make(map[string]*workerState),
		leases:  make(map[string]*lease),
		byKey:   make(map[string]*lease),
		wake:    make(chan struct{}),
		closed:  make(chan struct{}),
		reaped:  make(chan struct{}),
	}
	go c.reaper()
	return c
}

// Close stops the reaper. Pending Execute calls are not unwound — the
// owning serve.Server drains them first.
func (c *Coordinator) Close() {
	select {
	case <-c.closed:
		return
	default:
	}
	close(c.closed)
	<-c.reaped
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// journalLease records a lease transition; failures degrade to
// re-execution on recovery, exactly like the serve layer's non-submit ops.
func (c *Coordinator) journalLease(op journal.Op, jobID, worker string) {
	if c.opts.Journal == nil {
		return
	}
	if err := c.opts.Journal.AppendLease(op, jobID, worker); err != nil {
		c.logf("fleet: journal %s for %s: %v", op, jobID, err)
	}
}

// wakeLocked signals every long-polling lease request that the pending
// queue changed. Caller holds c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Capacity reports the fleet's live slot count (registered, non-draining,
// non-lost workers × their slots) — the Config.Capacity feed that keeps
// the serve layer's Retry-After hints honest in coordinator mode.
func (c *Coordinator) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if !w.lost && !w.draining {
			n += w.slots
		}
	}
	return n
}

// ---- serve.Executor ----

// Execute implements serve.Executor: it answers the job from the result
// store when every run is there (resolve); otherwise it queues the job for
// lease (or attaches it to an identical in-flight lease) and blocks until
// a worker publishes the result or ctx is canceled.
func (c *Coordinator) Execute(ctx context.Context, job serve.ExecJob) (*report.Report, exp.Stats, int, error) {
	if rep, stats, failed, err := c.resolve(ctx, job); !errors.Is(err, exp.ErrNotStored) {
		return rep, stats, failed, err
	}
	l, att, holder := c.acquire(job)
	if holder != "" && job.SetWorker != nil {
		job.SetWorker(holder) // attached to a lease already executing
	}
	select {
	case <-l.done:
	case <-ctx.Done():
		c.release(l, att)
		return nil, exp.Stats{}, 0, ctx.Err()
	}
	res := l.result
	if job.SetWorker != nil && res.worker != "" {
		job.SetWorker(res.worker)
	}
	switch res.status {
	case ResultDone:
		return res.report, res.stats, res.failedRuns, nil
	case ResultCanceled:
		return nil, res.stats, res.failedRuns, context.Canceled
	default:
		msg := res.errMsg
		if msg == "" {
			msg = "lease failed"
		}
		return nil, res.stats, res.failedRuns, errors.New(msg)
	}
}

// resolve answers a job from the coordinator's store without a lease. It
// runs serve.ExecuteSpec, the path a worker runs, on a store-only Runner,
// so the document is the one a worker would post. The Runner never
// simulates: the first run the store lacks, and any suite that works
// outside the memo (its exp registry row is not Stored), ends the attempt
// with exp.ErrNotStored. The attempt's progress is then dropped and the job
// is leased; a resolved job forwards it and names no worker.
func (c *Coordinator) resolve(ctx context.Context, job serve.ExecJob) (*report.Report, exp.Stats, int, error) {
	if c.opts.Store == nil {
		return nil, exp.Stats{}, 0, exp.ErrNotStored
	}
	var events []exp.ProgressEvent // the Runner serializes emits
	rep, stats, failed, err := serve.ExecuteSpec(ctx, job.Spec,
		serve.ExecOptions{Cache: c.opts.Store, StoreOnly: true},
		func(ev exp.ProgressEvent) { events = append(events, ev) })
	if err != nil {
		return nil, stats, failed, err
	}
	if job.Emit != nil {
		for _, ev := range events {
			job.Emit(ev)
		}
	}
	c.mu.Lock()
	c.resolved++
	c.mu.Unlock()
	c.logf("fleet: job %s resolved from the result store (%d runs)", job.ID, stats.Submitted())
	return rep, stats, failed, nil
}

// acquire creates a pending lease for the job, or attaches it to a live
// lease with an identical spec (fleet-wide coalescing). It returns the
// lease, this job's attachment (for release), and the holding worker if
// the lease is already executing.
func (c *Coordinator) acquire(job serve.ExecJob) (*lease, *attachment, string) {
	key := jobKeyOf(job.Spec)
	att := &attachment{emit: job.Emit, setWorker: job.SetWorker}
	c.mu.Lock()
	if key != "" {
		if l := c.byKey[key]; l != nil && l.state != leaseDone {
			l.attach = append(l.attach, att)
			c.coalesced++
			holder := l.worker
			c.mu.Unlock()
			c.logf("fleet: job %s coalesced onto lease %s (identical spec)", job.ID, l.id)
			return l, att, holder
		}
	}
	l := &lease{
		id:        job.ID,
		key:       key,
		spec:      job.Spec,
		recovered: job.Recovered,
		state:     leasePending,
		gen:       1,
		attach:    []*attachment{att},
		done:      make(chan struct{}),
	}
	c.leases[l.id] = l
	if key != "" {
		c.byKey[key] = l
	}
	c.pending = append(c.pending, l)
	c.wakeLocked()
	c.mu.Unlock()
	return l, att, ""
}

// release detaches one canceled job from its lease. When the last job
// goes away, a pending lease is finished immediately and a leased one is
// flagged so the worker cancels at its next progress flush or heartbeat.
func (c *Coordinator) release(l *lease, att *attachment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, a := range l.attach {
		if a == att {
			l.attach = append(l.attach[:i], l.attach[i+1:]...)
			break
		}
	}
	if len(l.attach) > 0 || l.state == leaseDone {
		return
	}
	l.cancelRequested = true
	if l.state == leasePending {
		c.dropPendingLocked(l)
		c.finishLocked(l, leaseResult{status: ResultCanceled})
		c.logf("fleet: lease %s canceled while pending", l.id)
	}
	// leaseLeased: the worker is told via heartbeat/progress and posts a
	// canceled result, which finishes the lease.
}

// dropPendingLocked removes l from the pending queue. Caller holds c.mu.
func (c *Coordinator) dropPendingLocked(l *lease) {
	for i, p := range c.pending {
		if p == l {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// finishLocked records the lease's terminal result and releases waiters.
// Caller holds c.mu.
func (c *Coordinator) finishLocked(l *lease, res leaseResult) {
	if l.state == leaseDone {
		return
	}
	l.state = leaseDone
	l.result = &res
	delete(c.leases, l.id)
	if l.key != "" && c.byKey[l.key] == l {
		delete(c.byKey, l.key)
	}
	close(l.done)
}

// requeueLocked puts a lease lost by worker back at the front of the
// queue with a bumped generation — stale progress/result posts from the
// old holder no longer match. Past MaxRequeues the job fails terminally
// instead of ping-ponging across a dying fleet. Caller holds c.mu.
func (c *Coordinator) requeueLocked(l *lease, worker string) {
	l.gen++
	l.requeues++
	l.worker = ""
	if l.requeues > c.opts.MaxRequeues {
		c.finishLocked(l, leaseResult{
			status: ResultFailed,
			errMsg: fmt.Sprintf("lease re-queued %d times after worker deaths; giving up", l.requeues-1),
		})
		return
	}
	l.state = leasePending
	c.pending = append([]*lease{l}, c.pending...)
	c.requeued++
	c.journalLease(journal.OpRequeued, l.id, worker)
	c.wakeLocked()
}

// markLostLocked declares a worker dead and disposes of its leases:
// cancel-requested ones finish as canceled, the rest are re-queued.
// Caller holds c.mu.
func (c *Coordinator) markLostLocked(w *workerState) {
	w.lost = true
	w.active = 0
	c.workersLost++
	for _, l := range c.leases {
		if l.state != leaseLeased || l.worker != w.id {
			continue
		}
		if l.cancelRequested {
			c.finishLocked(l, leaseResult{worker: w.id, status: ResultCanceled})
			continue
		}
		c.requeueLocked(l, w.id)
		c.logf("fleet: lease %s re-queued (worker %s lost, gen now %d)", l.id, w.id, l.gen)
	}
}

// reaper periodically declares workers that stopped heartbeating lost.
func (c *Coordinator) reaper() {
	defer close(c.reaped)
	tick := c.opts.HeartbeatTimeout / 4
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	if tick > 5*time.Second {
		tick = 5 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.reap(time.Now())
		case <-c.closed:
			return
		}
	}
}

// reap is one reaper pass (exposed to tests via the clock argument).
func (c *Coordinator) reap(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if !w.lost && now.Sub(w.lastBeat) > c.opts.HeartbeatTimeout {
			c.logf("fleet: worker %s lost (no heartbeat for %v)", w.id, now.Sub(w.lastBeat).Round(time.Millisecond))
			c.markLostLocked(w)
		}
	}
}

// ---- worker-facing operations (behind the HTTP handlers) ----

// errUnknownWorker makes lease/heartbeat calls from unregistered (or
// declared-lost) workers answer 410, telling the worker to re-register.
var errUnknownWorker = errors.New("unknown worker (re-register)")

// register admits a worker. A re-registration under a live name replaces
// the old worker, re-queueing anything it held. Its one refusal is an
// *IdentityMismatchError.
func (c *Coordinator) register(req RegisterRequest) (RegisterResponse, error) {
	if req.Identity != c.opts.Identity {
		return RegisterResponse{}, &IdentityMismatchError{
			Err:                 "build identity mismatch",
			CoordinatorIdentity: c.opts.Identity,
			WorkerIdentity:      req.Identity,
		}
	}
	slots := req.Slots
	if slots < 1 {
		slots = 1
	}
	c.mu.Lock()
	name := req.Name
	if name == "" {
		for name == "" || c.workers[name] != nil {
			var b [4]byte
			if _, err := rand.Read(b[:]); err != nil {
				panic("fleet: crypto/rand: " + err.Error()) // never fails on supported platforms
			}
			name = "w" + hex.EncodeToString(b[:])
		}
	}
	if old := c.workers[name]; old != nil && !old.lost {
		c.logf("fleet: worker %s re-registered; re-queueing its leases", name)
		c.markLostLocked(old)
		c.workersLost-- // a replacement, not a loss
	}
	now := time.Now()
	c.workers[name] = &workerState{id: name, slots: slots, registered: now, lastBeat: now}
	c.mu.Unlock()
	c.logf("fleet: worker %s registered (%d slots)", name, slots)
	return RegisterResponse{
		Worker:      name,
		HeartbeatMS: c.opts.HeartbeatInterval.Milliseconds(),
		Identity:    c.opts.Identity,
	}, nil
}

// heartbeat refreshes a worker's liveness, absorbs its pushed metrics,
// and returns pending control signals (canceled leases, drain).
func (c *Coordinator) heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.Worker]
	if w == nil || w.lost {
		return HeartbeatResponse{}, errUnknownWorker
	}
	w.lastBeat = time.Now()
	if req.Metrics != nil {
		w.metrics = req.Metrics
	}
	var resp HeartbeatResponse
	resp.Draining = w.draining
	for _, l := range c.leases {
		if l.state == leaseLeased && l.worker == req.Worker && l.cancelRequested {
			resp.Canceled = append(resp.Canceled, l.id)
		}
	}
	sort.Strings(resp.Canceled)
	return resp, nil
}

// leaseNext hands the requesting worker a job, long-polling up to wait
// for one to arrive. A nil grant with nil error means no work (204). A
// draining worker gets no work, but its poll still waits out the window:
// answered at once, its slots would re-poll in a tight loop until their
// next heartbeat tells them to stop.
func (c *Coordinator) leaseNext(workerID string, wait time.Duration) (*LeaseGrant, error) {
	if wait < 0 {
		wait = 0
	}
	if wait > c.opts.LeaseWait {
		wait = c.opts.LeaseWait
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		w := c.workers[workerID]
		if w == nil || w.lost {
			c.mu.Unlock()
			return nil, errUnknownWorker
		}
		w.lastBeat = time.Now()
		if l := c.pickLocked(w); l != nil {
			l.state = leaseLeased
			l.worker = workerID
			w.active++
			grant := &LeaseGrant{Lease: l.id, Gen: l.gen, Spec: l.spec, Recovered: l.recovered}
			setters := setWorkerFuncs(l)
			c.journalLease(journal.OpLeased, l.id, workerID)
			c.mu.Unlock()
			for _, set := range setters {
				set(workerID)
			}
			c.logf("fleet: lease %s -> worker %s (gen %d)", l.id, workerID, l.gen)
			return grant, nil
		}
		wake := c.wake
		c.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil
		}
		t := time.NewTimer(remain)
		select {
		case <-wake:
		case <-t.C:
		case <-c.closed:
		}
		t.Stop()
		select {
		case <-c.closed:
			return nil, nil
		default:
		}
	}
}

// setWorkerFuncs snapshots a lease's non-nil setWorker callbacks (called
// outside c.mu — they take the serve job's lock).
func setWorkerFuncs(l *lease) []func(string) {
	fns := make([]func(string), 0, len(l.attach))
	for _, a := range l.attach {
		if a.setWorker != nil {
			fns = append(fns, a.setWorker)
		}
	}
	return fns
}

// pickLocked chooses the pending lease for a worker: the oldest one whose
// rendezvous-preferred worker is the requester (cache affinity — repeated
// identical specs land where their run results are already on local
// disk), else the oldest outright (work conservation beats affinity).
// A draining worker gets nothing. Caller holds c.mu.
func (c *Coordinator) pickLocked(w *workerState) *lease {
	if len(c.pending) == 0 || w.draining {
		return nil
	}
	for i, l := range c.pending {
		if c.preferredLocked(l.key) == w.id {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return l
		}
	}
	l := c.pending[0]
	c.pending = c.pending[1:]
	return l
}

// preferredLocked is the rendezvous (highest-random-weight) shard of a
// lease key across the live, non-draining workers. Caller holds c.mu.
func (c *Coordinator) preferredLocked(key string) string {
	var best string
	var bestH uint64
	for id, w := range c.workers {
		if w.lost || w.draining {
			continue
		}
		h := fnv.New64a()
		io.WriteString(h, key)
		h.Write([]byte{0})
		io.WriteString(h, id)
		if s := h.Sum64(); best == "" || s > bestH {
			best, bestH = id, s
		}
	}
	return best
}

// progress forwards a batch of worker progress events to the lease's
// attached jobs. The reply tells the worker whether the lease was
// canceled meanwhile.
func (c *Coordinator) progress(leaseID string, post ProgressPost) (ProgressReply, error) {
	c.mu.Lock()
	l := c.leases[leaseID]
	if l == nil || l.state != leaseLeased || l.gen != post.Gen || l.worker != post.Worker {
		c.mu.Unlock()
		// Unknown or stale: tell the worker to stop wasting cycles on it.
		return ProgressReply{Canceled: true}, nil
	}
	if w := c.workers[post.Worker]; w != nil {
		w.lastBeat = time.Now()
	}
	emits := make([]func(exp.ProgressEvent), 0, len(l.attach))
	for _, a := range l.attach {
		if a.emit != nil {
			emits = append(emits, a.emit)
		}
	}
	canceled := l.cancelRequested
	c.mu.Unlock()
	for _, ev := range post.Events {
		for _, emit := range emits {
			emit(ev)
		}
	}
	return ProgressReply{Canceled: canceled}, nil
}

// finishLease accepts a worker's terminal post for a lease. Stale
// generations and duplicate posts are ignored (idempotent), which is what
// keeps a recovered lease's result single: the re-queued execution's post
// carries the bumped gen, the dead worker's late post does not.
func (c *Coordinator) finishLease(leaseID string, post ResultPost) (ResultReply, error) {
	var rep *report.Report
	if post.Status == ResultDone {
		rep = &report.Report{}
		if err := json.Unmarshal(post.Report, rep); err != nil {
			// The worker produced an unreadable document; fail the job
			// rather than hand serve a nil report marked done.
			post.Status = ResultFailed
			post.Error = "unreadable result document: " + err.Error()
			rep = nil
		}
	}
	c.mu.Lock()
	l := c.leases[leaseID]
	if l == nil || l.state != leaseLeased || l.gen != post.Gen || l.worker != post.Worker {
		c.mu.Unlock()
		return ResultReply{}, nil
	}
	w := c.workers[post.Worker]
	if w != nil {
		w.lastBeat = time.Now()
		if w.active > 0 {
			w.active--
		}
	}
	if post.Status == ResultAbandoned {
		// The worker is shutting down mid-lease: put the job back on the
		// queue right away instead of waiting out the heartbeat timeout.
		c.requeueLocked(l, post.Worker)
		c.mu.Unlock()
		c.logf("fleet: lease %s abandoned by worker %s; re-queued", leaseID, post.Worker)
		return ResultReply{Accepted: true}, nil
	}
	if w != nil {
		switch post.Status {
		case ResultDone:
			w.done++
		case ResultFailed:
			w.failed++
		} // a canceled lease was neither completed nor failed
	}
	c.finishLocked(l, leaseResult{
		worker:     post.Worker,
		status:     post.Status,
		report:     rep,
		stats:      post.Engine,
		failedRuns: post.FailedRuns,
		errMsg:     post.Error,
	})
	c.mu.Unlock()
	c.logf("fleet: lease %s %s (worker %s, executed %d)", leaseID, post.Status, post.Worker, post.Engine.Executed)
	return ResultReply{Accepted: true}, nil
}

// workerInfos snapshots the registry for GET /fleet/v1/workers.
func (c *Coordinator) workerInfos() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w.info())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// drainWorker marks a worker draining: it finishes its active leases and
// receives no new ones (and stops counting toward fleet capacity).
func (c *Coordinator) drainWorker(id string) (WorkerInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return WorkerInfo{}, false
	}
	w.draining = true
	return w.info(), true
}

// info renders the worker's wire row. Caller holds c.mu.
func (w *workerState) info() WorkerInfo {
	return WorkerInfo{
		ID: w.id, Slots: w.slots, Active: w.active,
		Done: w.done, Failed: w.failed,
		Draining: w.draining, Lost: w.lost,
		Registered: w.registered, LastBeat: w.lastBeat,
	}
}

// ---- HTTP plumbing ----

// Handler routes /fleet/v1/* to the coordinator, merges the fleet series
// into GET /metrics after the wrapped server's exposition, and forwards
// everything else to next (the serve.Server handler).
func (c *Coordinator) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/v1/register", c.handleRegister)
	mux.HandleFunc("POST /fleet/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fleet/v1/lease", c.handleLease)
	mux.HandleFunc("POST /fleet/v1/leases/{id}/progress", c.handleProgress)
	mux.HandleFunc("POST /fleet/v1/leases/{id}/result", c.handleResult)
	mux.HandleFunc("GET /fleet/v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /fleet/v1/workers/{id}/drain", c.handleDrain)
	mux.HandleFunc("GET /fleet/v1/results/{key}", c.handleResultGet)
	mux.HandleFunc("PUT /fleet/v1/results/{key}", c.handleResultPut)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/fleet/v1/") {
			mux.ServeHTTP(w, r)
			return
		}
		if r.Method == http.MethodGet && r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			c.writeMetrics(w)
			return
		}
		next.ServeHTTP(w, r)
	})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !serve.ReadJSON(w, r, "register request", &req) {
		return
	}
	resp, err := c.register(req)
	if err != nil {
		serve.WriteJSON(w, http.StatusConflict, err) // the typed identity mismatch
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// reply answers a worker call: 410 Gone when the coordinator does not know
// the worker (it must re-register), else 200 with resp.
func reply(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		serve.WriteError(w, http.StatusGone, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !serve.ReadJSON(w, r, "heartbeat", &req) {
		return
	}
	resp, err := c.heartbeat(req)
	reply(w, resp, err)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !serve.ReadJSON(w, r, "lease request", &req) {
		return
	}
	grant, err := c.leaseNext(req.Worker, time.Duration(req.WaitMS)*time.Millisecond)
	if err == nil && grant == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	reply(w, grant, err)
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	var post ProgressPost
	if !serve.ReadJSON(w, r, "progress post", &post) {
		return
	}
	resp, err := c.progress(r.PathValue("id"), post)
	reply(w, resp, err)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var post ResultPost
	if !serve.ReadJSON(w, r, "result post", &post) {
		return
	}
	resp, err := c.finishLease(r.PathValue("id"), post)
	reply(w, resp, err)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.workerInfos())
}

func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	info, ok := c.drainWorker(r.PathValue("id"))
	if !ok {
		serve.WriteError(w, http.StatusNotFound, "no such worker")
		return
	}
	c.logf("fleet: worker %s draining", info.ID)
	serve.WriteJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleResultGet(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.resultGets++
	c.mu.Unlock()
	if c.opts.Store == nil {
		serve.WriteError(w, http.StatusNotFound, "coordinator has no result store")
		return
	}
	res, ok := c.opts.Store.Get(r.PathValue("key"))
	if !ok {
		serve.WriteError(w, http.StatusNotFound, "no such result")
		return
	}
	c.mu.Lock()
	c.resultHits++
	c.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, res)
}

func (c *Coordinator) handleResultPut(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.resultPuts++
	c.mu.Unlock()
	if c.opts.Store == nil {
		w.WriteHeader(http.StatusNoContent) // accepted and dropped, like a nil cache
		return
	}
	var res pipeline.Result
	if !serve.ReadJSON(w, r, "result body", &res) {
		return
	}
	c.opts.Store.Put(r.PathValue("key"), res)
	w.WriteHeader(http.StatusNoContent)
}

// writeMetrics appends the fleet series to a /metrics exposition: fleet
// gauges and counters plus every worker's last heartbeat-pushed series,
// labelled by worker. Like every series, a pushed one is typed by its name.
func (c *Coordinator) writeMetrics(w io.Writer) {
	c.mu.Lock()
	type ws struct {
		id      string
		metrics map[string]uint64
	}
	var (
		workers, draining, capacity, pendingN, active int
		lost                                          = c.workersLost
		resolved                                      = c.resolved
		coalesced                                     = c.coalesced
		requeued                                      = c.requeued
		gets, hits, puts                              = c.resultGets, c.resultHits, c.resultPuts
		pushed                                        []ws
	)
	for _, wk := range c.workers {
		if wk.lost {
			continue
		}
		workers++
		if wk.draining {
			draining++
		} else {
			capacity += wk.slots
		}
		active += wk.active
		if len(wk.metrics) > 0 {
			pushed = append(pushed, ws{wk.id, wk.metrics})
		}
	}
	pendingN = len(c.pending)
	c.mu.Unlock()

	m := serve.NewMetricWriter(w)
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"fleet_workers", uint64(workers)},
		{"fleet_workers_draining", uint64(draining)},
		{"fleet_capacity_slots", uint64(capacity)},
		{"fleet_leases_pending", uint64(pendingN)},
		{"fleet_leases_active", uint64(active)},
		{"fleet_workers_lost_total", lost},
		{"fleet_jobs_resolved_total", resolved},
		{"fleet_leases_coalesced_total", coalesced},
		{"fleet_leases_requeued_total", requeued},
		{"fleet_result_gets_total", gets},
		{"fleet_result_hits_total", hits},
		{"fleet_result_puts_total", puts},
	} {
		m.Sample("conspec_served_"+f.name, f.v)
	}

	sort.Slice(pushed, func(i, k int) bool { return pushed[i].id < pushed[k].id })
	for _, p := range pushed {
		names := make([]string, 0, len(p.metrics))
		for name := range p.metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if validMetricName(name) {
				m.Sample("conspec_served_worker_"+name, p.metrics[name], "worker", p.id)
			}
		}
	}
}

// validMetricName keeps pushed worker metric names inside the Prometheus
// exposition grammar, since they travel over the wire from workers.
func validMetricName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
