package exp

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"conspec/internal/attack"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/obs/trace"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// slimAttackCore is the attack machine the suites use by default: the paper
// core with the slimmed L2/L3 the PoCs run on.
func slimAttackCore() config.Core {
	return Options{}.attackCore()
}

// countAttacks arms r's attack hook with a counter. With fake set the hook
// answers at once with a full recovery instead of simulating.
func countAttacks(r *Runner, fake bool) *atomic.Int64 {
	var n atomic.Int64
	r.testAttack = func(h *attack.Harness, cfg config.Core, sec pipeline.SecurityConfig) attack.Outcome {
		n.Add(1)
		if !fake {
			return h.Run(cfg, sec)
		}
		d, _ := core.DefenseFor(sec.Mechanism, sec.SSBD)
		return attack.Outcome{Scenario: h.Name, Defense: d, SharedMemory: h.SharedMemory,
			Recovered: append([]byte(nil), h.Secret...), Secret: append([]byte(nil), h.Secret...),
			Correct: len(h.Secret), Leaked: true}
	}
	return &n
}

// fakeRuns makes every overhead run answer at once without simulating.
func fakeRuns(r *Runner) {
	r.testExec = func(w *workload.Workload, spec RunSpec) pipeline.Result {
		return pipeline.Result{Cycles: 100 + uint64(spec.Sec.Mechanism), Committed: 100,
			Outcome: pipeline.OutcomeInstTarget}
	}
}

// TestDefensesWarmRunsNoAttack: a second Defenses call on one Runner takes
// every verdict from the memo and returns the same rows.
func TestDefensesWarmRunsNoAttack(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	fakeRuns(r)
	n := countAttacks(r, false)
	ctx := context.Background()
	cold, err := r.Defenses(ctx, tinySpec(), []string{"astar"}, nil, slimAttackCore())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.Load(), int64(len(core.Defenses())); got != want {
		t.Fatalf("cold call ran %d attacks, want %d", got, want)
	}
	warm, err := r.Defenses(ctx, tinySpec(), []string{"astar"}, nil, slimAttackCore())
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Load() - int64(len(core.Defenses())); got != 0 {
		t.Errorf("warm call ran %d attacks, want 0", got)
	}
	if !reflect.DeepEqual(cold.Rows, warm.Rows) {
		t.Errorf("warm rows differ:\ncold %+v\nwarm %+v", cold.Rows, warm.Rows)
	}
}

// TestTable4ThenDefensesShareVerdicts: defenses' V1 verdicts for the four
// paper variants are table4's V1 Flush+Reload cells on the same attack
// core, so the pair runs 40 + 4 attacks, not 48.
func TestTable4ThenDefensesShareVerdicts(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	fakeRuns(r)
	n := countAttacks(r, true)
	ctx := context.Background()
	opts := Options{Spec: tinySpec(), Benches: []string{"astar"}}
	res, err := r.RunSuite(ctx, SuiteTable4, opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(attack.ScenarioNames()) * len(core.Mechanisms)
	if got := len(res.Value.([]attack.Outcome)); got != cells {
		t.Fatalf("table4 returned %d outcomes, want %d", got, cells)
	}
	if _, err := r.RunSuite(ctx, SuiteDefenses, opts); err != nil {
		t.Fatal(err)
	}
	want := int64(cells + len(core.Defenses()) - len(core.Mechanisms))
	if got := n.Load(); got != want {
		t.Errorf("table4 then defenses ran %d attacks, want %d", got, want)
	}
	if st := r.Stats(); st.Submitted() != 2*uint64(len(core.Defenses())) {
		t.Errorf("Stats counts %d submissions, want only the %d overhead runs", st.Submitted(), 2*len(core.Defenses()))
	}
}

// TestTable4Order: cells start together on the pool but the outcomes and
// their progress events come back in table order.
func TestTable4Order(t *testing.T) {
	var lines []string
	r := NewRunner(RunnerOptions{Workers: 3, OnEvent: func(ev ProgressEvent) { lines = append(lines, ev.Line) }})
	countAttacks(r, true)
	out, err := r.Table4(context.Background(), slimAttackCore())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, name := range attack.ScenarioNames() {
		for _, m := range core.Mechanisms {
			if out[i].Scenario != name || out[i].Defense.Mechanism() != m {
				t.Fatalf("cell %d is %s / %s, want %s / %v", i, out[i].Scenario, out[i].Defense.Title(), name, m)
			}
			if lines[i] != out[i].String() {
				t.Fatalf("event %d reads %q, want %q", i, lines[i], out[i].String())
			}
			i++
		}
	}
}

// TestConcurrentDefensesCoalesce: two concurrent Defenses calls for one
// backend run its verdict once, whichever finds the other in flight.
func TestConcurrentDefensesCoalesce(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	fakeRuns(r)
	n := countAttacks(r, false)
	var wg sync.WaitGroup
	rows := make([]*DefensesResult, 2)
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Defenses(context.Background(), tinySpec(), []string{"astar"}, []string{"fence"}, slimAttackCore())
			if err != nil {
				t.Error(err)
			}
			rows[i] = res
		}()
	}
	wg.Wait()
	if got := n.Load(); got != 1 {
		t.Errorf("two concurrent calls ran %d attacks, want 1", got)
	}
	if rows[0] != nil && rows[1] != nil && !reflect.DeepEqual(rows[0].Rows, rows[1].Rows) {
		t.Errorf("coalesced calls disagree: %+v vs %+v", rows[0].Rows, rows[1].Rows)
	}
}

// TestCancelledVerdictNotMemoized: a verdict whose ctx ends while it waits
// for a worker slot is not memoized, so a later request runs it.
func TestCancelledVerdictNotMemoized(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 1})
	n := countAttacks(r, true)
	sec := pipeline.SecurityConfig{Mechanism: core.Baseline}
	r.sem <- struct{}{} // hold the only slot
	ctx, cancel := context.WithCancel(context.Background())
	wait := r.attack(ctx, SuiteDefenses, v1Scenario, slimAttackCore(), sec)
	cancel()
	if _, err := wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("verdict cancelled before its slot returned %v, want context.Canceled", err)
	}
	<-r.sem
	if n.Load() != 0 {
		t.Fatal("a verdict that never got a slot ran")
	}
	o, err := r.attack(context.Background(), SuiteDefenses, v1Scenario, slimAttackCore(), sec)()
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 1 || o.Scenario != v1Scenario {
		t.Errorf("later request ran %d attacks and returned %q, want 1 and %q", n.Load(), o.Scenario, v1Scenario)
	}
}

// TestPanickingAttackIsAnError: a harness that panics fails its verdict
// with an error instead of the process, and is not memoized.
func TestPanickingAttackIsAnError(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	r.testAttack = func(*attack.Harness, config.Core, pipeline.SecurityConfig) attack.Outcome {
		panic("did not halt")
	}
	sec := pipeline.SecurityConfig{Mechanism: core.Origin}
	if _, err := r.attack(context.Background(), SuiteTable4, v1Scenario, slimAttackCore(), sec)(); err == nil {
		t.Fatal("a panicking attack returned no error")
	}
	n := countAttacks(r, true)
	if _, err := r.attack(context.Background(), SuiteTable4, v1Scenario, slimAttackCore(), sec)(); err != nil || n.Load() != 1 {
		t.Errorf("after a panic the verdict ran %d times (err %v), want once", n.Load(), err)
	}
}

// TestVerdictHitIsACopy: a caller that mutates a returned outcome's bytes
// does not change what a later hit returns.
func TestVerdictHitIsACopy(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	countAttacks(r, true)
	sec := pipeline.SecurityConfig{Mechanism: core.Origin}
	first, err := r.attack(context.Background(), SuiteTable4, v1Scenario, slimAttackCore(), sec)()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), first.Recovered...)
	wantSecret := append([]byte(nil), first.Secret...)
	for i := range first.Recovered {
		first.Recovered[i] ^= 0xff
	}
	first.Secret[0] ^= 0xff
	again, err := r.attack(context.Background(), SuiteTable4, v1Scenario, slimAttackCore(), sec)()
	if err != nil {
		t.Fatal(err)
	}
	if string(again.Recovered) != string(want) || string(again.Secret) != string(wantSecret) {
		t.Errorf("a later hit returned Recovered %x Secret %x, want %x %x",
			again.Recovered, again.Secret, want, wantSecret)
	}
}

// TestAttackSpans: with a tracer, every verdict request records an
// "attack" span under its suite span, annotated with the scenario and the
// mechanism, and a memo hit also with its cache tier.
func TestAttackSpans(t *testing.T) {
	tr := trace.New(256)
	r := NewRunner(RunnerOptions{Trace: tr})
	fakeRuns(r)
	countAttacks(r, true)
	opts := Options{Spec: tinySpec(), Benches: []string{"astar"}, Defenses: []string{"origin", "fence"}}
	for i := 0; i < 2; i++ {
		if _, err := r.RunSuite(context.Background(), SuiteDefenses, opts); err != nil {
			t.Fatal(err)
		}
	}
	suites := map[float64]bool{}
	var attacks []chromeEvent
	for _, ev := range exportChrome(t, tr) {
		switch ev.Name {
		case "suite:defenses":
			suites[ev.Args["span_id"].(float64)] = true
		case "attack":
			attacks = append(attacks, ev)
		}
	}
	if len(attacks) != 4 {
		t.Fatalf("%d attack spans, want 4 (2 run, 2 hits)", len(attacks))
	}
	hits := 0
	for _, sp := range attacks {
		if !suites[sp.Args["parent_id"].(float64)] {
			t.Errorf("attack span not under a suite:defenses span: %+v", sp.Args)
		}
		if sp.arg("scenario") != v1Scenario || sp.arg("mechanism") == "" {
			t.Errorf("attack span lacks scenario or mechanism: %+v", sp.Args)
		}
		if sp.arg("cache") != "" {
			hits++
			if sp.arg("cache") != "hit" || sp.arg("tier") != TierMemory {
				t.Errorf("hit span has wrong annotations: %+v", sp.Args)
			}
		}
	}
	if hits != 2 {
		t.Errorf("%d attack spans marked as hits, want 2", hits)
	}
}

// TestRunKeysRenderedOnce: every run a small -suite all submits is looked
// up under keyOf's key, rendered once per distinct run, and a run armed
// with a flight recorder shares the unarmed run's entry.
func TestRunKeysRenderedOnce(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	fakeRuns(r)
	countAttacks(r, true)
	ctx := context.Background()
	opts := Options{Spec: tinySpec(), Benches: []string{"astar", "lbm"}}
	suites, err := SuitesNamed("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range suites {
		if _, err := r.RunSuite(ctx, s.ID, opts); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
	}
	if len(r.keys) == 0 || len(r.keys) != len(r.cache) {
		t.Fatalf("%d rendered keys for %d memo entries", len(r.keys), len(r.cache))
	}
	for id, key := range r.keys {
		if want := keyOf(id.p, id.spec); key != want {
			t.Errorf("%s / %s: table key %s, keyOf %s", id.p.Name, mechLabel(id.spec), key, want)
		}
		if e, ok := r.cache[key]; !ok || e.key != key {
			t.Errorf("%s / %s: no memo entry under its key", id.p.Name, mechLabel(id.spec))
		}
	}

	p, _ := workload.ByName("astar")
	armed := withSec(tinySpec(), pipeline.SecurityConfig{Mechanism: core.Origin})
	armed.FlightWindow = 64
	before, keys := r.Stats(), len(r.keys)
	if _, errs := r.runAll(ctx, SuiteFig5, []runReq{{p, armed}}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	st := r.Stats()
	if st.Executed != before.Executed || st.Hits != before.Hits+1 || len(r.keys) != keys {
		t.Errorf("armed run: executed %d→%d, hits %d→%d, keys %d→%d; want a hit on the unarmed entry",
			before.Executed, st.Executed, before.Hits, st.Hits, keys, len(r.keys))
	}
}
