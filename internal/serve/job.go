package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"conspec/internal/core"
	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/obs/trace"
	"conspec/internal/workload"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted, waiting for a worker slot.
	StatusQueued Status = "queued"
	// StatusRunning: executing on a worker.
	StatusRunning Status = "running"
	// StatusDone: completed; the result document is available. Individual
	// runs may still have failed — see JobStatus.FailedRuns and the result
	// document's errors array.
	StatusDone Status = "done"
	// StatusFailed: the job could not produce a result document.
	StatusFailed Status = "failed"
	// StatusCanceled: canceled by DELETE, client disconnect (with
	// cancel_on_disconnect), or a forced server stop.
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// JobSpec is a submission: which suite(s) to run and the per-run budget.
// The zero value of each budget field means the server-side default, so
// {"suite":"fig5"} is a complete submission.
type JobSpec struct {
	// Suite is one of conspec-bench's suite names, or "all".
	Suite string `json:"suite"`
	// Benches restricts suites to a benchmark subset (nil = all 22).
	Benches []string `json:"benches,omitempty"`
	// Defenses restricts the defenses suite to a subset of registered
	// backends, by canonical name or alias (nil = all registered).
	Defenses []string `json:"defenses,omitempty"`
	// Warmup and Measure are committed-instruction budgets per run.
	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	// MetricsInterval samples the obs registry every N cycles of each
	// measured phase; the result document then carries time series.
	MetricsInterval uint64 `json:"metrics_interval,omitempty"`
	// SelfCheck audits pipeline/security invariants every N cycles.
	SelfCheck uint64 `json:"selfcheck,omitempty"`
	// RunTimeoutMS bounds each simulation's wall-clock time, overriding
	// the server default (0 = inherit).
	RunTimeoutMS int64 `json:"run_timeout_ms,omitempty"`
	// Workers caps this job's concurrent simulations below the server's
	// per-job allowance (0 = inherit).
	Workers int `json:"workers,omitempty"`
	// CancelOnDisconnect cancels the job when its last event-stream
	// watcher disconnects while it is still queued or running.
	CancelOnDisconnect bool `json:"cancel_on_disconnect,omitempty"`
	// FlightWindow arms each simulation's flight recorder with a dump
	// window of that many cycles: failed runs in the result document's
	// errors array then carry the last FlightWindow cycles of
	// microarchitectural events (0 = recorder off).
	FlightWindow uint64 `json:"flight_window,omitempty"`
}

// validate rejects a spec the workers could not execute, so submission is
// the only place a client sees a 400 rather than a failed job.
func (s JobSpec) validate() error {
	if _, err := exp.SuitesNamed(s.Suite); err != nil {
		return err
	}
	for _, name := range s.Benches {
		if _, ok := workload.ByName(name); !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
	}
	for _, name := range s.Defenses {
		if _, err := core.LookupDefense(name); err != nil {
			return err
		}
	}
	if s.Workers < 0 {
		return fmt.Errorf("negative workers")
	}
	if s.RunTimeoutMS < 0 {
		return fmt.Errorf("negative run_timeout_ms")
	}
	return nil
}

// JobStatus is a job's wire representation. Result is populated only on
// single-job GETs once the job is done; list responses omit it.
type JobStatus struct {
	ID      string    `json:"id"`
	Spec    JobSpec   `json:"spec"`
	Status  Status    `json:"status"`
	Created time.Time `json:"created"`
	// Recovered marks a job replayed from the durable journal after a
	// server restart: it was accepted by a previous process and re-queued
	// on startup. Its simulations re-execute idempotently — runs that
	// completed before the crash are served from the disk cache.
	Recovered bool `json:"recovered,omitempty"`
	// Worker names the fleet worker the job is (or was) leased to. Empty in
	// standalone mode, where execution is in-process.
	Worker   string     `json:"worker,omitempty"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// FailedRuns counts simulations excluded from the result's aggregates
	// (the result document's errors array has the details).
	FailedRuns int                 `json:"failed_runs,omitempty"`
	Engine     *report.EngineStats `json:"engine,omitempty"`
	Result     *report.Report      `json:"result,omitempty"`
}

// Event is one SSE frame: either an engine ProgressEvent forwarded from
// the job's Runner ("progress") or a job lifecycle transition ("state").
// Seq is the frame's position in the job's event history, so a client that
// reconnects can detect replayed frames.
type Event struct {
	Type string `json:"type"` // "state" | "progress"
	Job  string `json:"job"`
	Seq  int    `json:"seq"`
	// Epoch identifies the server process that recorded the event. A
	// reconnecting watcher compares it against the last stream's epoch: a
	// change means the server restarted and the job's event history began
	// anew (the job was recovered from the journal), so Seq comparisons
	// against the previous stream are meaningless and the client must
	// treat every frame as fresh.
	Epoch    string             `json:"epoch,omitempty"`
	Status   Status             `json:"status,omitempty"`
	Error    string             `json:"error,omitempty"`
	Progress *exp.ProgressEvent `json:"progress,omitempty"`
}

// Terminal reports whether the event announces a final job state (the
// frame after which the stream ends).
func (e Event) Terminal() bool {
	return e.Type == "state" && e.Status.Terminal()
}

// job is the server-side job record: spec, lifecycle, result, and the
// event history its watchers read.
type job struct {
	id    string
	spec  JobSpec
	epoch string // owning server process, stamped on every event
	// recovered marks a job re-queued from the journal after a restart.
	recovered bool

	mu         sync.Mutex
	status     Status
	worker     string // fleet worker holding/last holding the lease
	created    time.Time
	started    time.Time
	finished   time.Time
	err        string
	failedRuns int
	engine     *report.EngineStats
	result     *report.Report

	// events is the append-only history. Watchers read it through a
	// cursor (eventsFrom), so a watcher holds no buffer of its own and the
	// worker never waits for one.
	events []Event
	// wake, when non-nil, is closed by the next publish; watchers that
	// have read the whole history wait on it.
	wake     chan struct{}
	watchers int

	// cancel is armed while running; cancelASAP marks a cancel request
	// received before (or without) a running context.
	cancel     context.CancelFunc
	cancelASAP bool

	// onAbandoned is called (outside mu) when the last subscriber leaves a
	// live job that asked for cancel_on_disconnect.
	onAbandoned func()

	// Tracer spans (owned by the server's tracer): span is the job's root,
	// queueSpan covers submission to worker pickup.
	span, queueSpan trace.SpanID

	done chan struct{} // closed at terminal state
}

// newJob builds a queued job. A recovered job keeps the id and submission
// time the journal recorded.
func newJob(id string, spec JobSpec, epoch string, created time.Time, recovered bool) *job {
	j := &job{
		id:        id,
		spec:      spec,
		epoch:     epoch,
		recovered: recovered,
		status:    StatusQueued,
		created:   created,
		done:      make(chan struct{}),
	}
	j.publishLocked(Event{Type: "state", Status: StatusQueued})
	return j
}

// publishLocked appends ev to the history and wakes waiting watchers.
// Callers must NOT hold j.mu for the initial newJob call; every other
// caller must.
func (j *job) publishLocked(ev Event) {
	ev.Job = j.id
	ev.Epoch = j.epoch
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// progress forwards one engine event to watchers (the Runner serializes
// OnEvent calls, but j.mu also guards against concurrent state publishes).
func (j *job) progress(ev exp.ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evCopy := ev
	j.publishLocked(Event{Type: "progress", Progress: &evCopy})
}

// subscribe registers a watcher. The returned func must be called exactly
// once; it unregisters the watcher and, for cancel_on_disconnect jobs,
// cancels the job when the last watcher leaves while it is still live.
func (j *job) subscribe() (unsub func()) {
	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		j.watchers--
		abandoned := j.spec.CancelOnDisconnect && j.watchers == 0 && !j.status.Terminal()
		cb := j.onAbandoned
		j.mu.Unlock()
		if abandoned && cb != nil {
			cb()
		}
	}
}

// eventsFrom returns the history from index next on. When there is none
// yet, it returns a channel the next publish closes instead. The slice
// aliases the history, which is only ever appended to, so it stays valid
// without the lock.
func (j *job) eventsFrom(next int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(j.events); next < n {
		return j.events[next:n:n], nil
	}
	if j.wake == nil {
		j.wake = make(chan struct{})
	}
	return nil, j.wake
}

// setWorker records which fleet worker holds (or held) the job's lease; a
// re-lease after a worker death overwrites it.
func (j *job) setWorker(worker string) {
	j.mu.Lock()
	j.worker = worker
	j.mu.Unlock()
}

// requestCancel cancels a live job: a running job's context is canceled, a
// queued job is marked so the worker skips it the moment it is dequeued.
// Terminal jobs are left untouched (returns false).
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return false
	}
	j.cancelASAP = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// begin transitions queued -> running and arms the cancel func. It returns
// false — and does nothing — if the job was canceled while queued.
func (j *job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelASAP || j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now().UTC()
	j.cancel = cancel
	j.publishLocked(Event{Type: "state", Status: StatusRunning})
	return true
}

// finish records the terminal state and result, publishes the final state
// event (watchers end their streams at it) and closes done.
func (j *job) finish(status Status, rep *report.Report, engine *report.EngineStats, failedRuns int, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.status = status
	j.finished = time.Now().UTC()
	j.result = rep
	j.engine = engine
	j.failedRuns = failedRuns
	j.err = errMsg
	j.cancel = nil
	j.publishLocked(Event{Type: "state", Status: status, Error: errMsg})
	close(j.done)
}

// snapshot renders the wire form. withResult includes the (potentially
// large) result document.
func (j *job) snapshot(withResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		Spec:       j.spec,
		Status:     j.status,
		Created:    j.created,
		Recovered:  j.recovered,
		Worker:     j.worker,
		Error:      j.err,
		FailedRuns: j.failedRuns,
		Engine:     j.engine,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if withResult {
		st.Result = j.result
	}
	return st
}
