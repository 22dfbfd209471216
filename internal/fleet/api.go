// Package fleet is the distributed execution tier over the serve layer:
// one coordinator that owns the job queue, admission control, and the
// result store, plus N stateless workers that register, heartbeat, lease
// jobs over HTTP, execute them on a local exp.Runner, and publish results
// back.
//
// The coordinator is a serve.Executor: it plugs into serve.Config.Executor
// so the public /v1/jobs API, the SSE event streams, the durable journal,
// and the admission path are exactly the standalone server's — only the
// execution backend changes. Lease state is persisted through the same
// journal (journal.OpLeased / journal.OpRequeued records), so a
// coordinator crash re-queues leased jobs just like interrupted local
// runs. Identical job specs coalesce fleet-wide onto one lease, and the
// per-simulation results are content-addressed in the coordinator's
// store, which workers reach over HTTP (see store.go) — so work is never
// repeated anywhere in the fleet, with or without a shared filesystem.
//
// Coordinator API (all JSON, under /fleet/v1/, inbound from workers and
// conspec-ctl):
//
//	POST /fleet/v1/register            RegisterRequest -> RegisterResponse
//	                                   (409 IdentityMismatchError when the
//	                                    worker binary differs)
//	POST /fleet/v1/heartbeat           HeartbeatRequest -> HeartbeatResponse
//	                                   (410 when the worker is unknown —
//	                                    re-register)
//	POST /fleet/v1/lease               LeaseRequest -> LeaseGrant | 204
//	                                   (long-polls up to wait_ms)
//	POST /fleet/v1/leases/{id}/progress ProgressPost -> ProgressReply
//	POST /fleet/v1/leases/{id}/result  ResultPost -> ResultReply
//	GET  /fleet/v1/workers             []WorkerInfo
//	POST /fleet/v1/workers/{id}/drain  WorkerInfo
//	GET  /fleet/v1/results/{key}       cached pipeline.Result | 404
//	PUT  /fleet/v1/results/{key}       store a result -> 204
//
// Workers make only outbound requests (register, heartbeat, lease,
// publish), so they run behind NAT with no inbound port; their metrics
// ride the heartbeat and are merged into the coordinator's /metrics
// exposition with a worker label.
package fleet

import (
	"encoding/json"
	"fmt"
	"time"

	"conspec/internal/exp"
	"conspec/internal/serve"
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is the worker's requested stable name (empty = coordinator
	// assigns one). Re-registering an existing name replaces that worker:
	// its leases are re-queued as if it had died.
	Name string `json:"name,omitempty"`
	// Identity is the worker binary's buildinfo.Info.Identity(). It must
	// equal the coordinator's: results are content-addressed by build
	// identity, so a mismatched binary would poison the shared store.
	Identity string `json:"identity"`
	// Slots is how many leases the worker executes concurrently (min 1).
	Slots int `json:"slots"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// Worker is the assigned worker id — the credential for every
	// subsequent call.
	Worker string `json:"worker"`
	// HeartbeatMS is the interval the coordinator expects heartbeats at;
	// missing several in a row marks the worker dead and re-queues its
	// leases.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// Identity echoes the coordinator's build identity.
	Identity string `json:"identity"`
}

// IdentityMismatchError is the typed 409 body a registration with a
// mismatched build identity receives, and the error Worker.Run returns for
// it. Both identities are included so the operator can see exactly which
// binary is stale.
type IdentityMismatchError struct {
	Err                 string `json:"error"`
	CoordinatorIdentity string `json:"coordinator_identity"`
	WorkerIdentity      string `json:"worker_identity"`
}

// Error implements error.
func (e *IdentityMismatchError) Error() string {
	return fmt.Sprintf("build identity mismatch: coordinator runs %q, worker runs %q", e.CoordinatorIdentity, e.WorkerIdentity)
}

// HeartbeatRequest is the worker's periodic liveness report.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	// Metrics is a snapshot of the worker's cumulative counters
	// (runs_executed_total, cache_hits_remote_total, ...), merged into the
	// coordinator's Prometheus exposition with a worker label.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// HeartbeatResponse carries coordinator->worker control signals.
type HeartbeatResponse struct {
	// Canceled lists leases held by this worker whose jobs were canceled;
	// the worker must stop executing them and publish a canceled result.
	Canceled []string `json:"canceled,omitempty"`
	// Draining tells the worker it has been drained: finish active leases,
	// take no new ones.
	Draining bool `json:"draining,omitempty"`
}

// LeaseRequest asks for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
	// WaitMS long-polls: the coordinator holds the request up to this long
	// waiting for a queued job before answering 204.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// LeaseGrant hands one job to a worker.
type LeaseGrant struct {
	// Lease is the lease id (the job id it executes).
	Lease string `json:"lease"`
	// Gen is the lease generation: it increments each time the lease is
	// re-queued after a worker death, and every progress/result post must
	// echo it — posts from a stale generation are ignored, which is what
	// makes "worker killed mid-lease" safe from duplicated results.
	Gen int `json:"gen"`
	// Spec is the job to execute.
	Spec serve.JobSpec `json:"spec"`
	// Recovered marks a job replayed from the coordinator's journal.
	Recovered bool `json:"recovered,omitempty"`
}

// ProgressPost forwards a batch of engine progress events for a lease, in
// emission order.
type ProgressPost struct {
	Worker string              `json:"worker"`
	Gen    int                 `json:"gen"`
	Events []exp.ProgressEvent `json:"events"`
}

// ProgressReply piggybacks cancellation on the progress stream, so a
// cancel propagates at the next flush rather than the next heartbeat.
type ProgressReply struct {
	Canceled bool `json:"canceled,omitempty"`
}

// Lease result statuses. Done/failed/canceled mirror the job states;
// abandoned is a worker shutting down mid-lease, which re-queues the job
// immediately instead of waiting out the heartbeat timeout.
const (
	ResultDone      = "done"
	ResultFailed    = "failed"
	ResultCanceled  = "canceled"
	ResultAbandoned = "abandoned"
)

// ResultPost publishes a finished lease.
type ResultPost struct {
	Worker string `json:"worker"`
	Gen    int    `json:"gen"`
	// Status is one of the Result* constants.
	Status string `json:"status"`
	// Report is the result document (report.Report JSON) on done.
	Report json.RawMessage `json:"report,omitempty"`
	// Engine carries the worker Runner's scheduler counters.
	Engine exp.Stats `json:"engine"`
	// FailedRuns counts simulations excluded from the report's aggregates.
	FailedRuns int `json:"failed_runs,omitempty"`
	// Error is the failure message on failed.
	Error string `json:"error,omitempty"`
}

// ResultReply acknowledges a result post.
type ResultReply struct {
	// Accepted is false when the post was ignored: unknown lease, stale
	// generation (the lease was re-queued and finished elsewhere), or a
	// duplicate post. Idempotent either way.
	Accepted bool `json:"accepted"`
}

// WorkerInfo is one worker's row in GET /fleet/v1/workers and
// conspec-ctl workers.
type WorkerInfo struct {
	ID    string `json:"id"`
	Slots int    `json:"slots"`
	// Active is how many leases the worker holds right now.
	Active int `json:"active"`
	// Done/Failed count leases the worker completed/failed since it
	// registered; a canceled lease counts in neither.
	Done   uint64 `json:"done"`
	Failed uint64 `json:"failed"`
	// Draining: the worker finishes its active leases but gets no new ones.
	Draining bool `json:"draining,omitempty"`
	// Lost: the worker missed enough heartbeats to be declared dead; its
	// leases were re-queued. Kept listed for visibility.
	Lost       bool      `json:"lost,omitempty"`
	Registered time.Time `json:"registered"`
	LastBeat   time.Time `json:"last_beat"`
}

// jobKeyOf derives the fleet-wide coalescing key for a job spec: the
// canonical JSON of every field that affects the result document (the
// whole spec — JobSpec marshals deterministically). Two jobs with equal
// keys share one lease and one execution.
func jobKeyOf(spec serve.JobSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// JobSpec is plain data; Marshal cannot fail. Fall back to no
		// coalescing rather than panic.
		return ""
	}
	return string(b)
}
