package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"conspec/internal/attack"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/exp"
	"conspec/internal/isa"
	"conspec/internal/obs/trace"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

const (
	// simWorkers is the Runner's simulation pool: one per vCPU of the
	// 2-vCPU reference host.
	simWorkers = 2
	// setupReps is how many set-ups a run times; setup_s is their median.
	setupReps = 7
	// minWarmJobs is the fewest warm jobs a run needs for 10 samples
	// beyond warm_job_cpu_p90_ms.
	minWarmJobs = 100
)

// resubmits is how many times a sim workload resubmits each cold job of a
// pass, identically and after all of the pass's cold jobs, as the service
// smoke test resubmits a job. The metric set asks for warm-job percentiles on every workload, so
// this is the fewest resubmissions that give a run minWarmJobs warm jobs
// (at least one); the self-test uses one.
func resubmits(o *options, coldPerPass int) int {
	if o.lenient {
		return 1
	}
	n := coldPerPass * o.passes
	return max(1, (minWarmJobs+n-1)/n)
}

// longSpec is sim-long's per-run budget: the paper's headline setting.
func longSpec() exp.RunSpec { return exp.DefaultSpec() }

// shortSpec is sim-short's budget, where set-up dominates each run.
func shortSpec() exp.RunSpec {
	s := exp.DefaultSpec()
	s.Warmup = 2_000
	s.Measure = 5_000
	return s
}

// attackCore is the machine the defenses suite attacks (exp's default).
func attackCore() config.Core {
	cfg := config.PaperCore()
	cfg.Mem.L2Size = 256 * 1024
	cfg.Mem.L3Size = 1024 * 1024
	return cfg
}

// ---- golden digests ----

//go:embed golden.json
var goldenJSON []byte

// goldenDigests holds one digest per profile × mechanism: "long" at
// longSpec under the paper's four variants, "short" at shortSpec under
// every registered backend.
type goldenDigests struct {
	Long  map[string]string `json:"long"`
	Short map[string]string `json:"short"`
}

var golden goldenDigests

func loadGolden() error {
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	return nil
}

// digest fingerprints a Result's simulated statistics.
func digest(res pipeline.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // Result is plain data; marshalling cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func longKey(bench string, m core.Mechanism) string { return bench + "/" + m.String() }
func shortKey(bench, defense string) string         { return bench + "/" + defense }

// updateGolden recomputes every digest with exp.RunWorkload, the Runner's
// own simulation function, and writes them to path.
func updateGolden(ctx context.Context, path string) error {
	type item struct {
		key  string
		long bool
		p    workload.Profile
		spec exp.RunSpec
	}
	var items []item
	for _, p := range workload.Profiles() {
		for _, m := range core.Mechanisms {
			s := longSpec()
			s.Sec.Mechanism = m
			items = append(items, item{longKey(p.Name, m), true, p, s})
		}
		for _, d := range core.Defenses() {
			s := shortSpec()
			s.Sec = exp.SecFor(d)
			items = append(items, item{shortKey(p.Name, d.Name()), false, p, s})
		}
	}
	g := goldenDigests{Long: map[string]string{}, Short: map[string]string{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	next := make(chan item)
	for i := 0; i < simWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				w, err := workload.Generate(it.p)
				var res pipeline.Result
				if err == nil {
					res, err = exp.RunWorkloadCtx(ctx, w, it.spec, nil)
				}
				if err == nil && !res.Outcome.Completed() {
					err = fmt.Errorf("%s ended %s", it.key, res.Outcome)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if it.long {
					g.Long[it.key] = digest(res)
				} else {
					g.Short[it.key] = digest(res)
				}
				mu.Unlock()
			}
		}()
	}
	for _, it := range items {
		next <- it
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ---- inputs ----

// profileNames returns the profiles a sim pass covers: all 22, or the
// first o.profiles for the self-test.
func profileNames(o *options) []string {
	names := workload.Names()
	if o.profiles > 0 && o.profiles < len(names) {
		names = names[:o.profiles]
	}
	return names
}

// shuffled returns names in an order drawn from rng.
func shuffled(rng *rand.Rand, names []string) []string {
	out := make([]string, len(names))
	for i, j := range rng.Perm(len(names)) {
		out[i] = names[j]
	}
	return out
}

// outsideSpec keeps spec's work but gives it a run key no measured run
// has, by raising the cycle cap by one.
func outsideSpec(spec exp.RunSpec) exp.RunSpec {
	spec.MaxCycles = 400*(spec.Warmup+spec.Measure) + 1
	return spec
}

// simSetup times setupReps set-ups: build a Runner and finish one
// evaluation at the long budget, outside the measured set, checking its
// results against the golden digests. Set-up i evaluates the i-th profile,
// so every seed's set-ups do the same work. Both sim workloads use the long
// budget so set-up is real work (about 0.4 CPU seconds), not a few
// milliseconds that cannot repeat within the bound.
func simSetup(ctx context.Context, r *run, names []string) {
	spec := longSpec()
	for i := 0; i < setupReps; i++ {
		name := names[i%len(names)]
		sw := startWatch()
		runner := exp.NewRunner(exp.RunnerOptions{Workers: simWorkers})
		ev, err := runner.Evaluation(ctx, outsideSpec(spec), []string{name})
		r.setups = append(r.setups, sw.stop())
		r.attempted++
		if err != nil {
			r.fail("setup evaluation %s: %v", name, err)
			continue
		}
		r.checkEvaluation(ev, runner)
	}
}

// checkEvaluation compares every result of an evaluation at longSpec with
// the golden digests and counts the Runner's failed runs.
func (r *run) checkEvaluation(ev *exp.Evaluation, runner *exp.Runner) {
	for _, b := range ev.Benches {
		for _, m := range core.Mechanisms {
			res, ok := b.Results[m]
			if !ok {
				r.fail("%s / %s: no result", b.Name, m)
				continue
			}
			if got, want := digest(res), golden.Long[longKey(b.Name, m)]; got != want {
				r.mismatch("%s / %s: digest %s, golden %s", b.Name, m, got, want)
			}
		}
	}
	for _, e := range runner.Errors() {
		r.fail("run %s / %s: %v", e.Benchmark, e.Mechanism, e.Err)
	}
}

// ---- sim-long ----

func runSimLong(ctx context.Context, o *options, r *run) error {
	rng := rand.New(rand.NewSource(o.seed))
	names := profileNames(o)
	spec := longSpec()
	simSetup(ctx, r, names)
	warm := resubmits(o, len(names))

	var probe []probeItem
	var evals [][]float64 // per-mechanism normalized runtimes, for accuracy
	err := r.timedLoop(o, func(i int) (pass, error) {
		traced := r.tracedPass(i)
		pa := pass{traced: traced}
		root := r.span(traced, trace.NoSpan, "pass:sim-long")
		defer r.tr.End(root)
		ropts := exp.RunnerOptions{Workers: simWorkers}
		if traced {
			ropts.Trace, ropts.TraceRoot = r.tr, root
		}
		var gc0 gcDelta
		if traced {
			gc0 = readGC()
		}
		sw := startWatch()
		runner := exp.NewRunner(ropts)
		done := map[string]*exp.Evaluation{}
		order := shuffled(rng, names)
		for _, name := range order {
			sp := r.span(traced, root, "job:cold")
			jw := startWatch()
			ev, err := runner.Evaluation(ctx, spec, []string{name})
			d := jw.stop()
			r.tr.End(sp)
			r.attempted++
			pa.jobs++
			if err != nil {
				r.fail("evaluation %s: %v", name, err)
				continue
			}
			if !traced {
				r.cold = append(r.cold, d)
			}
			r.checkEvaluation(ev, runner)
			for _, res := range ev.Benches[0].Results {
				pa.insts += spec.Warmup + res.Committed
			}
			done[name] = ev
			if traced && len(probe) < len(names)*len(core.Mechanisms) {
				p, _ := workload.ByName(name)
				for _, m := range core.Mechanisms {
					s := spec
					s.Sec.Mechanism = m
					probe = append(probe, probeItem{p, s, longKey(name, m), golden.Long[longKey(name, m)]})
				}
			}
		}
		for _, name := range order {
			ev, ok := done[name]
			if !ok {
				continue
			}
			for k := 0; k < warm; k++ {
				sp := r.span(traced, root, "job:warm")
				jw := startWatch()
				wev, err := runner.Evaluation(ctx, spec, []string{name})
				d := jw.stop()
				r.tr.End(sp)
				r.attempted++
				pa.jobs++
				if err != nil {
					r.fail("warm evaluation %s: %v", name, err)
					continue
				}
				if !traced {
					r.warm = append(r.warm, d)
				}
				if !reflect.DeepEqual(wev.Benches, ev.Benches) {
					r.mismatch("warm evaluation %s differs from its cold result", name)
				}
			}
		}
		pa.elapsed = sw.stop()
		st := runner.Stats()
		pa.executed = st.Executed
		if traced {
			r.addGC(gc0)
			r.sample("exp.hit_frac", float64(st.Hits+st.DiskHits)/float64(st.Submitted()))
			r.sample("exp.executed", float64(st.Executed))
		}
		if len(evals) == 0 {
			evals = normalizedRuntimes(done)
		}
		return pa, nil
	})
	if err != nil {
		return err
	}
	paper := map[core.Mechanism]float64{core.Baseline: 1.536, core.CacheHit: 1.128, core.CacheHitTPBuf: 1.068}
	for mi, m := range core.Mechanisms[1:] {
		r.note("accuracy: %-32s mean normalized runtime %.3f over %d profiles (paper Fig 5: %.3f)",
			m, mean(evals[mi]), len(evals[mi]), paper[m])
	}
	if r.tr != nil {
		_, err = r.runProbe(ctx, probe)
	}
	return err
}

// normalizedRuntimes returns, per non-origin paper variant, each profile's
// runtime normalized to Origin.
func normalizedRuntimes(evs map[string]*exp.Evaluation) [][]float64 {
	out := make([][]float64, len(core.Mechanisms)-1)
	for _, ev := range evs {
		b := ev.Benches[0]
		for mi, m := range core.Mechanisms[1:] {
			out[mi] = append(out[mi], 1+b.Overhead(m))
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---- sim-short ----

// recorder is a result tier that never hits and keeps every executed
// run's Result, so the benchmark can check a suite whose API returns only
// aggregates. It holds results in memory only: the Runner stays cold.
type recorder struct {
	mu   sync.Mutex
	puts []pipeline.Result
}

func (c *recorder) Get(string) (pipeline.Result, bool) { return pipeline.Result{}, false }

func (c *recorder) Put(_ string, res pipeline.Result) {
	c.mu.Lock()
	c.puts = append(c.puts, res)
	c.mu.Unlock()
}

// take returns and clears the recorded results.
func (c *recorder) take() []pipeline.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.puts
	c.puts = nil
	return p
}

func runSimShort(ctx context.Context, o *options, r *run) error {
	rng := rand.New(rand.NewSource(o.seed))
	names := profileNames(o)
	spec := shortSpec()
	acfg := attackCore()
	defs := core.Defenses()
	simSetup(ctx, r, names)
	warm := resubmits(o, len(defs))

	var probe []probeItem
	var probeDefs []core.Defense
	rows := map[string]exp.DefenseRow{}
	err := r.timedLoop(o, func(i int) (pass, error) {
		traced := r.tracedPass(i)
		pa := pass{traced: traced}
		root := r.span(traced, trace.NoSpan, "pass:sim-short")
		defer r.tr.End(root)
		rec := &recorder{}
		ropts := exp.RunnerOptions{Workers: simWorkers, Cache: rec}
		if traced {
			ropts.Trace, ropts.TraceRoot = r.tr, root
		}
		var gc0 gcDelta
		if traced {
			gc0 = readGC()
		}
		sw := startWatch()
		runner := exp.NewRunner(ropts)
		order := shuffled(rng, names)
		originDone := false
		perm := rng.Perm(len(defs))
		for _, bi := range perm {
			d := defs[bi]
			sp := r.span(traced, root, "job:cold")
			jw := startWatch()
			res, err := runner.Defenses(ctx, spec, order, []string{d.Name()}, acfg)
			dur := jw.stop()
			r.tr.End(sp)
			r.attempted++
			pa.jobs++
			puts := rec.take()
			for _, p := range puts {
				pa.insts += spec.Warmup + p.Committed
			}
			if err != nil {
				r.fail("defenses %s: %v", d.Name(), err)
				continue
			}
			if !traced {
				r.cold = append(r.cold, dur)
			}
			want := expectedShort(names, d, !originDone)
			originDone = true
			if !sameStrings(digests(puts), want) {
				r.mismatch("defenses %s: executed runs differ from the golden digests (%d runs, %d expected)", d.Name(), len(puts), len(want))
			}
			row := r.checkDefenseRow(d, res)
			rows[d.Name()] = row
			if traced && len(probeDefs) < len(defs) {
				probeDefs = append(probeDefs, d)
				for _, name := range names {
					p, _ := workload.ByName(name)
					s := spec
					s.Sec = exp.SecFor(d)
					probe = append(probe, probeItem{p, s, shortKey(name, d.Name()), golden.Short[shortKey(name, d.Name())]})
				}
			}
		}
		for _, bi := range perm {
			d := defs[bi]
			row, ok := rows[d.Name()]
			if !ok {
				continue
			}
			for k := 0; k < warm; k++ {
				sp := r.span(traced, root, "job:warm")
				jw := startWatch()
				res, err := runner.Defenses(ctx, spec, order, []string{d.Name()}, acfg)
				dur := jw.stop()
				r.tr.End(sp)
				r.attempted++
				pa.jobs++
				if err != nil {
					r.fail("warm defenses %s: %v", d.Name(), err)
					continue
				}
				if !traced {
					r.warm = append(r.warm, dur)
				}
				if n := len(rec.take()); n != 0 {
					r.mismatch("warm defenses %s executed %d runs, want 0", d.Name(), n)
				}
				if got := r.checkDefenseRow(d, res); !sameRow(got, row) {
					r.mismatch("warm defenses %s: row %+v, cold row %+v", d.Name(), got, row)
				}
			}
		}
		pa.elapsed = sw.stop()
		st := runner.Stats()
		pa.executed = st.Executed
		for _, e := range runner.Errors() {
			r.fail("run %s / %s: %v", e.Benchmark, e.Mechanism, e.Err)
		}
		if traced {
			r.addGC(gc0)
			r.sample("exp.hit_frac", float64(st.Hits+st.DiskHits)/float64(st.Submitted()))
			r.sample("exp.executed", float64(st.Executed))
		}
		return pa, nil
	})
	if err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	if _, err := r.runProbe(ctx, probe); err != nil {
		return err
	}
	// The suite's V1 attacks run inside Runner.Defenses; replay the same
	// calls to time them and check their verdicts.
	for _, d := range probeDefs {
		sp := r.tr.Begin(trace.NoSpan, "attack.v1")
		r.tr.Annotate(sp, "defense", d.Name())
		t := time.Now()
		out := attack.V1FlushReload(acfg).Run(acfg, exp.SecFor(d))
		r.sample("attack.v1_ms", ms(time.Since(t)))
		r.tr.End(sp)
		if out.Leaked != rows[d.Name()].Leaked || out.Correct != rows[d.Name()].Recovered {
			r.mismatch("probe attack %s: leaked=%v recovered=%d, suite said %v/%d", d.Name(),
				out.Leaked, out.Correct, rows[d.Name()].Leaked, rows[d.Name()].Recovered)
		}
	}
	return nil
}

// digests fingerprints each result.
func digests(rs []pipeline.Result) []string {
	out := make([]string, len(rs))
	for i, res := range rs {
		out[i] = digest(res)
	}
	return out
}

// expectedShort lists the golden digests one backend job must execute:
// the backend over every profile, plus origin when the pass has not yet
// run it.
func expectedShort(names []string, d core.Defense, withOrigin bool) []string {
	var want []string
	for _, n := range names {
		if d.Name() != "origin" {
			want = append(want, golden.Short[shortKey(n, d.Name())])
		}
		if withOrigin {
			want = append(want, golden.Short[shortKey(n, "origin")])
		}
	}
	return want
}

// sameStrings reports whether got and want hold the same strings, as
// multisets.
func sameStrings(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	return slices.Equal(g, w)
}

// checkDefenseRow validates one backend's row: exactly one row, for d,
// whose V1 verdict matches the backend's documented expectation.
func (r *run) checkDefenseRow(d core.Defense, res *exp.DefensesResult) exp.DefenseRow {
	if res == nil || len(res.Rows) != 1 || res.Rows[0].Name != d.Name() {
		r.mismatch("defenses %s: unexpected rows", d.Name())
		return exp.DefenseRow{}
	}
	row := res.Rows[0]
	if row.Leaked == row.ExpectBlock {
		r.mismatch("defenses %s: V1 leaked=%v, expected blocked=%v", d.Name(), row.Leaked, row.ExpectBlock)
	}
	return row
}

// sameRow compares two rows of one backend. The overhead is a sum taken
// in completion order, so it is compared to within rounding.
func sameRow(a, b exp.DefenseRow) bool {
	oa, ob := a.Overhead, b.Overhead
	a.Overhead, b.Overhead = 0, 0
	return a == b && math.Abs(oa-ob) <= 1e-12*math.Max(1, math.Abs(ob))
}

// ---- the traced simulation path ----

// probeItem is one simulation to replay through the traced path, with the
// digest of the Runner's Result for it.
type probeItem struct {
	p     workload.Profile
	spec  exp.RunSpec
	label string
	want  string
}

// runPhaseChunk matches exp's cancellation chunk: RunFor in chunks of this
// many cycles reproduces the Runner's Result exactly, stall-skip
// meta-counters included.
const runPhaseChunk = 1 << 16

// runChunked drives one committed-instruction phase as exp does.
func runChunked(cpu *pipeline.CPU, insts, maxCycles uint64) pipeline.Result {
	start := cpu.Cycle()
	target := cpu.Result().Committed + insts
	for {
		budget := maxCycles - (cpu.Cycle() - start)
		if budget > runPhaseChunk {
			budget = runPhaseChunk
		}
		res := cpu.RunFor(target-cpu.Result().Committed, budget)
		if res.Outcome != pipeline.OutcomeCycleCapExceeded || cpu.Cycle()-start >= maxCycles {
			return res
		}
	}
}

// runProbe replays items one at a time through Generate → NewFlatMem+Load
// → NewWithMemory → warmup → ResetStats → measure, timing and spanning
// each layer call, and checks each Result against the Runner's digest when
// the item has one. It returns each Result's digest.
func (r *run) runProbe(ctx context.Context, items []probeItem) ([]string, error) {
	if len(items) == 0 {
		return nil, nil
	}
	root := r.tr.Begin(trace.NoSpan, "probe")
	defer r.tr.End(root)
	var setupNS, totalNS, measureNS, cycles, skipped float64
	var got []string
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, it := range items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := r.tr.Begin(root, "sim:"+it.label)
		step := func(name string, f func()) time.Duration {
			s := r.tr.Begin(sp, name)
			t := time.Now()
			f()
			d := time.Since(t)
			r.tr.End(s)
			r.sample(name+"_ms", ms(d))
			return d
		}
		var w *workload.Workload
		var err error
		var backing *isa.FlatMem
		var cpu *pipeline.CPU
		spec := it.spec
		maxCycles := spec.MaxCycles
		if maxCycles == 0 {
			maxCycles = 400 * (spec.Warmup + spec.Measure)
		}
		dGen := step("workload.generate", func() { w, err = workload.Generate(it.p) })
		if err != nil {
			r.tr.End(sp)
			r.fail("probe %s: %v", it.label, err)
			got = append(got, "")
			continue
		}
		dLoad := step("workload.load", func() {
			backing = isa.NewFlatMem()
			w.Load(backing)
		})
		dNew := step("pipeline.new", func() {
			cfg := spec.Core
			cfg.Mem.L1DUpdate = spec.L1DUpdate
			cpu = pipeline.NewWithMemory(cfg, spec.Sec, backing)
			cpu.SetSelfCheck(spec.SelfCheck)
			cpu.SetPC(w.Entry)
		})
		var res pipeline.Result
		dWarm := step("pipeline.warmup", func() { res = runChunked(cpu, spec.Warmup, maxCycles) })
		var dMeas time.Duration
		if res.Outcome.Completed() {
			cpu.ResetStats()
			dMeas = step("pipeline.measure", func() { res = runChunked(cpu, spec.Measure, maxCycles) })
		}
		r.tr.End(sp)
		d := digest(res)
		got = append(got, d)
		if it.want != "" && d != it.want {
			r.mismatch("probe %s: traced-path digest %s, Runner's %s", it.label, d, it.want)
		}
		setupNS += float64(dGen + dLoad + dNew)
		totalNS += float64(dGen + dLoad + dNew + dWarm + dMeas)
		measureNS += float64(dMeas)
		cycles += float64(res.Cycles)
		skipped += float64(res.Stages.SkippedCycles)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	n := float64(len(items))
	r.layer["sim.setup_frac"] = metric{setupNS / totalNS, "frac"}
	r.layer["sim.alloc_mb"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / n / (1 << 20), "MB"}
	r.layer["pipeline.ns_per_cycle"] = metric{measureNS / cycles, "ns"}
	r.layer["pipeline.skip_frac"] = metric{skipped / cycles, "frac"}
	r.note("probe: %d simulations replayed through the traced path", len(items))
	return got, nil
}
