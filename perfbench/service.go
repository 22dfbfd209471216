package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conspec/internal/core"
	"conspec/internal/diskcache"
	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/fleet"
	"conspec/internal/mem"
	"conspec/internal/obs/trace"
	"conspec/internal/pipeline"
	"conspec/internal/serve"
	"conspec/internal/serve/client"
	"conspec/internal/serve/journal"
	"conspec/internal/workload"
)

// The job stream follows the one usage pattern the repository records for
// the service: scripts/serve_smoke.sh submits an lru job for one profile at
// 2000+8000 instructions and later resubmits the identical job, which the
// store serves without simulating. A pass submits one cold job (distinct
// spec, must simulate) for every profile, in an order the seed picks, then
// resubmits each of them once (warm, every run a store hit). So warm and
// cold jobs are one to one, and every pass does the same work.
const (
	svcSuite = "lru"
	// svcWarmup+svcMeasure is the smoke test's per-run budget. The u-th
	// cold spec of a run shifts u instructions from measure to warmup, to
	// get run keys of its own at the same cost; u = 0 (the smoke test's
	// exact spec) is used only at set-up, outside the measured set.
	svcWarmup  = 2_000
	svcMeasure = 8_000
	// probeColdSpecs bounds how many cold specs the traced probe replays.
	probeColdSpecs = 4
)

// jobSpec is the u-th distinct spec of a run, for one profile.
func jobSpec(bench string, u int) serve.JobSpec {
	return serve.JobSpec{Suite: svcSuite, Benches: []string{bench}, Warmup: svcWarmup + uint64(u), Measure: svcMeasure - uint64(u)}
}

// specKey identifies a spec for reference lookups.
func specKey(js serve.JobSpec) string {
	return fmt.Sprintf("%s/%v/%d/%d", js.Suite, js.Benches, js.Warmup, js.Measure)
}

// ---- timing wrappers ----

// timedCache is the exp.ResultCache handed to the server (standalone) or
// the worker's local tier (fleet). In traced passes it times each call.
type timedCache struct {
	inner exp.ResultCache
	on    atomic.Bool

	mu         sync.Mutex
	gets, puts []float64 // µs, hits only for gets
	getCalls   int
}

func (c *timedCache) Get(key string) (pipeline.Result, bool) {
	if !c.on.Load() {
		return c.inner.Get(key)
	}
	t := time.Now()
	res, ok := c.inner.Get(key)
	d := time.Since(t)
	c.mu.Lock()
	c.getCalls++
	if ok {
		c.gets = append(c.gets, float64(d)/1e3)
	}
	c.mu.Unlock()
	return res, ok
}

func (c *timedCache) Put(key string, res pipeline.Result) {
	if !c.on.Load() {
		c.inner.Put(key, res)
		return
	}
	t := time.Now()
	c.inner.Put(key, res)
	d := time.Since(t)
	c.mu.Lock()
	c.puts = append(c.puts, float64(d)/1e3)
	c.mu.Unlock()
}

// timedExecutor wraps Coordinator.Execute as the server's Executor and
// times warm jobs (resubmissions of a spec it has executed before) in
// traced passes.
type timedExecutor struct {
	coord *fleet.Coordinator
	on    atomic.Bool

	mu   sync.Mutex
	seen map[string]bool
	warm []float64 // ms
}

func (e *timedExecutor) Execute(ctx context.Context, job serve.ExecJob) (*report.Report, exp.Stats, int, error) {
	k := specKey(job.Spec)
	e.mu.Lock()
	warm := e.seen[k]
	e.seen[k] = true
	e.mu.Unlock()
	if !e.on.Load() || !warm {
		return e.coord.Execute(ctx, job)
	}
	t := time.Now()
	rep, st, failed, err := e.coord.Execute(ctx, job)
	d := time.Since(t)
	e.mu.Lock()
	e.warm = append(e.warm, ms(d))
	e.mu.Unlock()
	return rep, st, failed, err
}

// ---- the service under test ----

// service is one running server (standalone, or coordinator + worker)
// with its own store and journal in a fresh directory.
type service struct {
	dir        string
	store      *diskcache.Store
	local      *diskcache.Store // the worker's local tier (fleet only)
	jr         *journal.Journal
	srv        *serve.Server
	coord      *fleet.Coordinator
	ts         *httptest.Server
	transport  *http.Transport
	cl         *client.Client
	cache      *timedCache
	exec       *timedExecutor
	stopWorker context.CancelFunc
	workerDone chan error
}

// startService opens a fresh store and journal under the working
// directory's temp area and starts the server (plus, for fleet, the
// coordinator and a registered worker).
func startService(ctx context.Context, fleetMode bool) (_ *service, err error) {
	s := &service{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dir, err = os.MkdirTemp("", "perfbench-svc-"); err != nil {
		return nil, err
	}
	if s.store, err = diskcache.Open(filepath.Join(s.dir, "cache")); err != nil {
		return nil, err
	}
	if s.jr, _, err = journal.Open(filepath.Join(s.dir, "journal"), journal.Options{}); err != nil {
		return nil, err
	}
	cfg := serve.Config{SimWorkers: simWorkers, Journal: s.jr}
	if !fleetMode {
		s.cache = &timedCache{inner: s.store}
		cfg.Cache = s.cache
		s.srv = serve.New(cfg)
		s.ts = httptest.NewServer(s.srv.Handler())
	} else {
		cfg.Cache = s.store
		s.coord = fleet.NewCoordinator(fleet.CoordinatorOptions{Store: s.store, Journal: s.jr})
		s.exec = &timedExecutor{coord: s.coord, seen: map[string]bool{}}
		cfg.Executor = s.exec
		cfg.Capacity = s.coord.Capacity
		s.srv = serve.New(cfg)
		s.ts = httptest.NewServer(s.coord.Handler(s.srv.Handler()))
		if s.local, err = diskcache.Open(filepath.Join(s.dir, "worker-cache")); err != nil {
			return nil, err
		}
		s.cache = &timedCache{inner: s.local}
		w := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: s.ts.URL, Slots: 1, SimWorkers: simWorkers, LocalCache: s.cache,
		})
		wctx, cancel := context.WithCancel(ctx)
		s.stopWorker = cancel
		s.workerDone = make(chan error, 1)
		go func() { s.workerDone <- w.Run(wctx) }()
		for w.ID() == "" {
			select {
			case err := <-s.workerDone:
				s.workerDone <- err
				return nil, fmt.Errorf("fleet worker exited before registering: %v", err)
			case <-time.After(time.Millisecond):
			}
		}
	}
	s.transport = &http.Transport{MaxIdleConnsPerHost: 8}
	s.cl = &client.Client{BaseURL: s.ts.URL, HTTPClient: &http.Client{Transport: s.transport}}
	return s, nil
}

// close stops everything in dependency order and removes the directory.
// The worker is stopped and waited for first: its long-poll lease request
// would otherwise hold a connection open and make the httptest server's
// Close wait for it.
func (s *service) close() error {
	var errs []error
	if s.stopWorker != nil {
		s.stopWorker()
		if err := <-s.workerDone; err != nil {
			errs = append(errs, fmt.Errorf("fleet worker: %w", err))
		}
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.srv.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("drain: %w", err))
		}
		cancel()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	if s.ts != nil {
		s.ts.Close()
	}
	s.local.Close()
	s.store.Close()
	if s.jr != nil {
		if err := s.jr.Close(); err != nil {
			errs = append(errs, fmt.Errorf("journal: %w", err))
		}
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// jobTiming is one job's client-side and server-side timeline.
type jobTiming struct {
	latency                                elapsed
	submit, queueWait, exec, notify, fetch time.Duration
}

// doJob submits spec, watches it to its terminal event, fetches the result
// and returns the stripped result document's digest.
func (s *service) doJob(ctx context.Context, r *run, spec serve.JobSpec, traced bool, parent trace.SpanID) (st serve.JobStatus, doc string, tm jobTiming, err error) {
	sp := r.span(traced, parent, "job")
	defer r.tr.End(sp)
	sw := startWatch()
	t0 := sw.wall
	sub := r.span(traced, sp, "serve.submit")
	st, err = s.cl.Submit(ctx, spec)
	r.tr.End(sub)
	tSub := time.Now()
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.IsRetryable() {
			r.refused++
		}
		return st, "", tm, fmt.Errorf("submit: %w", err)
	}
	var terminal time.Time
	wsp := r.span(traced, sp, "serve.watch")
	err = s.cl.Watch(ctx, st.ID, func(ev serve.Event) error {
		if ev.Terminal() {
			terminal = time.Now()
		}
		return nil
	})
	r.tr.End(wsp)
	if err != nil {
		return st, "", tm, fmt.Errorf("watch %s: %w", st.ID, err)
	}
	tFetch := time.Now()
	fsp := r.span(traced, sp, "serve.fetch")
	st, err = s.cl.Get(ctx, st.ID)
	r.tr.End(fsp)
	tm.latency = sw.stop()
	tEnd := t0.Add(tm.latency.wall)
	if err != nil {
		return st, "", tm, fmt.Errorf("get: %w", err)
	}
	tm.submit = tSub.Sub(t0)
	tm.fetch = tEnd.Sub(tFetch)
	if st.Started != nil && st.Finished != nil {
		tm.queueWait = st.Started.Sub(st.Created)
		tm.exec = st.Finished.Sub(*st.Started)
		tm.notify = terminal.Sub(*st.Finished)
	}
	if st.Status != serve.StatusDone || st.Result == nil || st.FailedRuns != 0 {
		return st, "", tm, fmt.Errorf("job %s ended %s (%d failed runs): %s", st.ID, st.Status, st.FailedRuns, st.Error)
	}
	doc, err = strippedDigest(st.Result)
	return st, doc, tm, err
}

// strippedDigest fingerprints a result document without its engine
// statistics, which legitimately differ between producers.
func strippedDigest(rep *report.Report) (string, error) {
	cp := *rep
	cp.Engine = nil
	b, err := json.Marshal(&cp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// reference builds the in-process exp.Runner report for spec, exactly as
// serve.ExecuteSpec assembles it, and returns its stripped digest and the
// digests of the simulations the Runner executed for it.
func reference(ctx context.Context, js serve.JobSpec) (doc string, sims []string, err error) {
	spec := exp.DefaultSpec()
	spec.Warmup, spec.Measure = js.Warmup, js.Measure
	rec := &recorder{}
	runner := exp.NewRunner(exp.RunnerOptions{Workers: simWorkers, Cache: rec})
	res, err := runner.RunSuite(ctx, exp.SuiteID(js.Suite), exp.Options{Spec: spec, Benches: js.Benches})
	if err != nil {
		return "", nil, err
	}
	if errs := runner.Errors(); len(errs) > 0 {
		return "", nil, fmt.Errorf("%d failed runs: %v", len(errs), errs[0].Err)
	}
	rep := report.New()
	rep.AddSuite(res)
	rep.Finish(runner)
	if doc, err = strippedDigest(rep); err != nil {
		return "", nil, err
	}
	for _, p := range rec.take() {
		sims = append(sims, digest(p))
	}
	return doc, sims, nil
}

// lruProbe lists the simulations exp's lru suite runs for a one-profile
// spec: Origin, then CacheHit+TPBuf under each L1D update policy.
func lruProbe(js serve.JobSpec) []probeItem {
	p, _ := workload.ByName(js.Benches[0])
	base := exp.DefaultSpec()
	base.Warmup, base.Measure = js.Warmup, js.Measure
	o := base
	o.Sec = pipeline.SecurityConfig{Mechanism: core.Origin}
	items := []probeItem{{p, o, specKey(js) + "/origin", ""}}
	for _, pol := range []mem.UpdatePolicy{mem.UpdateAlways, mem.UpdateNoSpec, mem.UpdateDelayed} {
		s := base
		s.Sec = pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf}
		s.L1DUpdate = pol
		items = append(items, probeItem{p, s, fmt.Sprintf("%s/tpbuf-update-%d", specKey(js), pol), ""})
	}
	return items
}

// ---- serve-mix / fleet-mix ----

func runService(ctx context.Context, o *options, r *run, fleetMode bool) error {
	rng := rand.New(rand.NewSource(o.seed))
	passNames := profileNames(o)

	// docs collects every job's stripped digest by spec, for the check
	// against the in-process reference after the timed phase.
	docs := map[string][]string{}
	specs := map[string]serve.JobSpec{}
	record := func(spec serve.JobSpec, doc string) {
		k := specKey(spec)
		specs[k] = spec
		docs[k] = append(docs[k], doc)
	}

	// Set-up: start a fresh service and complete the smoke test's exact
	// cold-then-resubmit pair on it, for the i-th profile, setupReps times;
	// the last service stays.
	var svc *service
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return err
			}
		}
		spec := jobSpec(passNames[i%len(passNames)], 0)
		sw := startWatch()
		var err error
		if svc, err = startService(ctx, fleetMode); err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			r.attempted++
			_, doc, _, err := svc.doJob(ctx, r, spec, false, trace.NoSpan)
			if err != nil {
				r.fail("set-up %v: %v", spec.Benches, err)
				continue
			}
			record(spec, doc)
		}
		r.setups = append(r.setups, sw.stop())
	}
	defer func() {
		if err := svc.close(); err != nil {
			r.fail("teardown: %v", err)
		}
	}()

	workloadName := "serve-mix"
	if fleetMode {
		workloadName = "fleet-mix"
	}
	var probeCold []serve.JobSpec
	uniq := 0
	err := r.timedLoop(o, func(i int) (pass, error) {
		traced := r.tracedPass(i)
		pa := pass{traced: traced}
		root := r.span(traced, trace.NoSpan, "pass:"+workloadName)
		defer r.tr.End(root)
		var stream []serve.JobSpec
		for _, name := range shuffled(rng, passNames) {
			uniq++
			stream = append(stream, jobSpec(name, uniq))
		}
		svc.cache.on.Store(traced)
		if svc.exec != nil {
			svc.exec.on.Store(traced)
		}
		var gc0 gcDelta
		if traced {
			gc0 = readGC()
		}
		var hits, submitted uint64
		sw := startWatch()
		for _, warm := range []bool{false, true} {
			for _, spec := range stream {
				r.attempted++
				st, doc, tm, err := svc.doJob(ctx, r, spec, traced, root)
				if err != nil {
					r.fail("%s job %v: %v", workloadName, spec.Benches, err)
					continue
				}
				pa.jobs++
				record(spec, doc)
				if st.Engine != nil {
					pa.executed += st.Engine.Executed
					hits += st.Engine.MemHits + st.Engine.DiskHits
					submitted += st.Engine.Submitted
				}
				switch {
				case traced && warm:
					r.sample("serve.submit_ms", ms(tm.submit))
					r.sample("serve.queue_wait_ms", ms(tm.queueWait))
					r.sample("serve.exec_ms", ms(tm.exec))
					r.sample("serve.notify_ms", ms(tm.notify))
					r.sample("serve.fetch_ms", ms(tm.fetch))
				case traced:
					if len(probeCold) < probeColdSpecs {
						probeCold = append(probeCold, spec)
					}
				case warm:
					r.warm = append(r.warm, tm.latency)
				default:
					r.cold = append(r.cold, tm.latency)
				}
			}
		}
		pa.elapsed = sw.stop()
		pa.insts = pa.executed * (svcWarmup + svcMeasure)
		svc.cache.on.Store(false)
		if svc.exec != nil {
			svc.exec.on.Store(false)
		}
		if traced {
			r.addGC(gc0)
			if submitted > 0 {
				r.sample("exp.hit_frac", float64(hits)/float64(submitted))
			}
			r.sample("exp.executed", float64(pa.executed))
		}
		return pa, nil
	})
	if err != nil {
		return err
	}

	// Output check: every job's document against the in-process reference.
	// A one-profile lru job runs its simulations one after another, so two
	// references run at a time.
	keys := make([]string, 0, len(specs))
	for k := range specs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	refSims := make(map[string][]string, len(keys))
	var mu sync.Mutex
	var refErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				want, sims, err := reference(ctx, specs[k])
				mu.Lock()
				if err != nil && refErr == nil {
					refErr = fmt.Errorf("reference %s: %w", k, err)
				}
				refSims[k] = sims
				for _, got := range docs[k] {
					if err == nil && got != want {
						r.mismatch("%s job %s: result document differs from the in-process report", workloadName, k)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	if refErr != nil {
		return refErr
	}
	r.note("checked %d job documents over %d distinct specs against in-process reports", countDocs(docs), len(specs))

	if r.tr == nil {
		return nil
	}
	c := svc.cache
	c.mu.Lock()
	r.layer["diskcache.get_us"] = metric{median(c.gets), "us"}
	r.layer["diskcache.put_us"] = metric{median(c.puts), "us"}
	if c.getCalls > 0 {
		r.layer["diskcache.hit_frac"] = metric{float64(len(c.gets)) / float64(c.getCalls), "frac"}
	}
	c.mu.Unlock()
	if svc.exec != nil {
		svc.exec.mu.Lock()
		r.layer["fleet.execute_ms"] = metric{median(svc.exec.warm), "ms"}
		svc.exec.mu.Unlock()
	}
	var items []probeItem
	var groups []int
	for _, spec := range probeCold {
		g := lruProbe(spec)
		items = append(items, g...)
		groups = append(groups, len(g))
	}
	got, err := r.runProbe(ctx, items)
	if err != nil {
		return err
	}
	for gi, spec := range probeCold {
		n := groups[gi]
		if !sameStrings(got[:n], refSims[specKey(spec)]) {
			r.mismatch("probe %s: traced-path results differ from the Runner's", specKey(spec))
		}
		got = got[n:]
	}
	return nil
}

func countDocs(docs map[string][]string) int {
	n := 0
	for _, d := range docs {
		n += len(d)
	}
	return n
}
