package fleet

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"conspec/internal/exp"
	"conspec/internal/pipeline"
	"conspec/internal/serve/client"
)

// ResultStore is the pluggable persistent result tier the fleet threads
// under each worker's Runner. It is exactly exp.ResultCache — keys are hex
// runKeys, misses must never fail a run — named here because the fleet is
// where "which store" becomes a deployment choice: a *diskcache.Store for
// a local directory, a *RemoteStore for the coordinator over HTTP, or a
// *TieredStore layering both.
type ResultStore = exp.ResultCache

// RemoteStore is a ResultStore backed by the coordinator's result
// endpoints (GET/PUT /fleet/v1/results/{key}), giving workers the
// coordinator's content-addressed store without a shared filesystem. All
// errors degrade to misses/dropped writes, per the ResultCache contract.
type RemoteStore struct {
	c client.Client

	gets, hits, puts, errs atomic.Uint64
}

// RemoteStoreStats is a snapshot of a RemoteStore's traffic.
type RemoteStoreStats struct {
	Gets, Hits, Puts, Errs uint64
}

// remoteTimeout bounds one result store call, so a hung coordinator
// degrades to cache misses, not a wedged worker.
const remoteTimeout = 30 * time.Second

// NewRemoteStore returns a store over the coordinator at baseURL. A nil hc
// uses http.DefaultClient; each call is bounded by remoteTimeout.
func NewRemoteStore(baseURL string, hc *http.Client) *RemoteStore {
	if hc == nil {
		hc = http.DefaultClient
	}
	timed := *hc
	timed.Timeout = remoteTimeout
	return &RemoteStore{c: client.Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTPClient: &timed}}
}

// Get implements ResultStore. A 404 is a plain miss; any other failure
// also counts as an error.
func (r *RemoteStore) Get(key string) (pipeline.Result, bool) {
	if r == nil {
		return pipeline.Result{}, false
	}
	r.gets.Add(1)
	var res pipeline.Result
	found, err := r.c.Call(context.Background(), http.MethodGet, "/fleet/v1/results/"+key, nil, &res)
	if err != nil || !found {
		if !isStatus(err, http.StatusNotFound) {
			r.errs.Add(1)
		}
		return pipeline.Result{}, false
	}
	r.hits.Add(1)
	return res, true
}

// Put implements ResultStore: every finished simulation is published to
// the coordinator as it completes, which is what makes a worker kill -9
// lose no results — the next holder of the lease fetches them back.
func (r *RemoteStore) Put(key string, res pipeline.Result) {
	if r == nil {
		return
	}
	r.puts.Add(1)
	if _, err := r.c.Call(context.Background(), http.MethodPut, "/fleet/v1/results/"+key, res, nil); err != nil {
		r.errs.Add(1)
	}
}

// Stats snapshots the store's counters.
func (r *RemoteStore) Stats() RemoteStoreStats {
	if r == nil {
		return RemoteStoreStats{}
	}
	return RemoteStoreStats{
		Gets: r.gets.Load(), Hits: r.hits.Load(),
		Puts: r.puts.Load(), Errs: r.errs.Load(),
	}
}

// TieredStore layers a fast local ResultStore (typically a per-worker
// diskcache) over the coordinator's RemoteStore: reads hit local first and
// copy remote hits through; writes land in both, so a simulation finished
// anywhere in the fleet is eventually a local hit everywhere it is needed
// again. Either tier may be nil.
type TieredStore struct {
	Local  ResultStore
	Remote ResultStore

	localHits, remoteHits atomic.Uint64
}

// TieredStats counts which tier served the hits.
type TieredStats struct {
	LocalHits, RemoteHits uint64
}

// Get implements ResultStore.
func (t *TieredStore) Get(key string) (pipeline.Result, bool) {
	if t.Local != nil {
		if res, ok := t.Local.Get(key); ok {
			t.localHits.Add(1)
			return res, true
		}
	}
	if t.Remote != nil {
		if res, ok := t.Remote.Get(key); ok {
			t.remoteHits.Add(1)
			if t.Local != nil {
				t.Local.Put(key, res) // copy-through for the next local read
			}
			return res, true
		}
	}
	return pipeline.Result{}, false
}

// Put implements ResultStore.
func (t *TieredStore) Put(key string, res pipeline.Result) {
	if t.Local != nil {
		t.Local.Put(key, res)
	}
	if t.Remote != nil {
		t.Remote.Put(key, res)
	}
}

// Stats snapshots the per-tier hit counters.
func (t *TieredStore) Stats() TieredStats {
	return TieredStats{LocalHits: t.localHits.Load(), RemoteHits: t.remoteHits.Load()}
}
