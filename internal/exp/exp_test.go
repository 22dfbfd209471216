package exp

import (
	"context"
	"math"
	"strings"
	"testing"

	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// fastSpec trades statistical smoothness for speed in unit tests.
func fastSpec() RunSpec {
	s := DefaultSpec()
	s.Warmup = 8_000
	s.Measure = 40_000
	return s
}

// fastNames is a representative subset covering the qualitative classes:
// hit-dominated (GemsFDTD), branchy (astar), stream-rescued-by-TPBuf (lbm),
// page-hopping-unrescued (libquantum), chain-dominated (hmmer).
var fastNames = []string{"GemsFDTD", "astar", "lbm", "libquantum", "hmmer"}

func TestRunWorkloadProducesStats(t *testing.T) {
	p, _ := workload.ByName("astar")
	w := workload.MustGenerate(p)
	spec := fastSpec()
	res := RunWorkload(w, spec)
	if res.Committed < spec.Measure {
		t.Fatalf("committed %d < measure budget %d", res.Committed, spec.Measure)
	}
	if res.Cycles == 0 || res.L1D.Accesses == 0 {
		t.Fatal("empty statistics")
	}
}

// TestRunWorkloadSelfCheck threads RunSpec.SelfCheck through to the
// machine: a healthy run sweeps, finds nothing, and completes normally.
func TestRunWorkloadSelfCheck(t *testing.T) {
	p, _ := workload.ByName("astar")
	w := workload.MustGenerate(p)
	spec := fastSpec()
	spec.SelfCheck = 64
	res := RunWorkload(w, spec)
	if !res.Outcome.Completed() {
		t.Fatalf("outcome %v (diag %s)", res.Outcome, res.Diag)
	}
	if res.Hardening.SelfCheckSweeps == 0 {
		t.Error("no self-check sweeps recorded")
	}
	if res.Hardening.SelfCheckViolations != 0 {
		t.Errorf("%d violations on a healthy run", res.Hardening.SelfCheckViolations)
	}
}

func TestOverheadHelper(t *testing.T) {
	a := pipeline.Result{Cycles: 100}
	b := pipeline.Result{Cycles: 150}
	if got := Overhead(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("overhead = %v, want 0.5", got)
	}
	if Overhead(pipeline.Result{}, b) != 0 {
		t.Fatal("zero-cycle origin must not divide by zero")
	}
}

func TestEvaluationShape(t *testing.T) {
	ev, err := NewRunner(RunnerOptions{}).Evaluation(context.Background(), fastSpec(), fastNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Benches) != len(fastNames) {
		t.Fatalf("got %d benches", len(ev.Benches))
	}
	// The paper's central ordering: Baseline >= CacheHit >= CacheHit+TPBuf
	// on average, with real gaps.
	base, ch, tp := ev.Fig5.Avg.Baseline, ev.Fig5.Avg.CacheHit, ev.Fig5.Avg.TPBuf
	if !(base > ch && ch >= tp) {
		t.Errorf("mechanism ordering violated: base=%.3f ch=%.3f tp=%.3f", base, ch, tp)
	}
	if base < 0.10 {
		t.Errorf("Baseline average overhead %.3f suspiciously small", base)
	}

	for _, b := range ev.Benches {
		or := b.Results[core.Origin]
		if or.Committed == 0 {
			t.Fatalf("%s: no instructions measured", b.Name)
		}
		switch b.Name {
		case "lbm":
			// TPBuf must rescue lbm markedly relative to the cache-hit
			// filter (the paper's §VI.C(2) headline example).
			if b.Overhead(core.CacheHitTPBuf) > b.Overhead(core.CacheHit)-0.2 {
				t.Errorf("lbm not rescued: CH %.3f vs TPBuf %.3f",
					b.Overhead(core.CacheHit), b.Overhead(core.CacheHitTPBuf))
			}
			if b.Results[core.CacheHitTPBuf].TPBuf.MismatchRate() < 0.5 {
				t.Errorf("lbm S-Pattern mismatch rate %.2f, want high",
					b.Results[core.CacheHitTPBuf].TPBuf.MismatchRate())
			}
		case "libquantum":
			// libquantum's misses match the S-Pattern: TPBuf must NOT help.
			if b.Overhead(core.CacheHit)-b.Overhead(core.CacheHitTPBuf) > 0.1 {
				t.Errorf("libquantum should not be rescued: CH %.3f vs TPBuf %.3f",
					b.Overhead(core.CacheHit), b.Overhead(core.CacheHitTPBuf))
			}
			if b.Results[core.CacheHitTPBuf].TPBuf.MismatchRate() > 0.2 {
				t.Errorf("libquantum mismatch rate %.2f, want near zero",
					b.Results[core.CacheHitTPBuf].TPBuf.MismatchRate())
			}
		case "hmmer":
			// Chain-dominated: the cache-hit filter recovers ~everything.
			if b.Overhead(core.CacheHit) > 0.15 {
				t.Errorf("hmmer CacheHit overhead %.3f, want near zero",
					b.Overhead(core.CacheHit))
			}
			if b.Overhead(core.Baseline) < 0.4 {
				t.Errorf("hmmer Baseline overhead %.3f, want large",
					b.Overhead(core.Baseline))
			}
		}
	}

	if !strings.Contains(ev.Fig5Text(), "Average") {
		t.Error("Fig5Text missing average row")
	}
	if !strings.Contains(ev.Table5Text(), "Mismatch") {
		t.Error("Table5Text missing mismatch column")
	}
}

func TestEvaluationUnknownBenchmark(t *testing.T) {
	if _, err := NewRunner(RunnerOptions{}).Evaluation(context.Background(), fastSpec(), []string{"nope"}); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestL1HitRatesTrackPaper(t *testing.T) {
	// Origin L1D hit rates must stay within 8 points of the paper's
	// Table V column for every benchmark — the workload calibration
	// regression test.
	spec := fastSpec()
	spec.Measure = 60_000
	for _, p := range workload.Profiles() {
		w := workload.MustGenerate(p)
		s := spec
		s.Sec.Mechanism = core.Origin
		res := RunWorkload(w, s)
		got := res.L1D.HitRate()
		if math.Abs(got-p.PaperL1HitRate) > 0.08 {
			t.Errorf("%s: L1D hit rate %.3f, paper %.3f", p.Name, got, p.PaperL1HitRate)
		}
	}
}

func TestScopeDecomposition(t *testing.T) {
	r, err := NewRunner(RunnerOptions{}).Scope(context.Background(), fastSpec(), []string{"lbm", "astar"})
	if err != nil {
		t.Fatal(err)
	}
	// §VI.C(1): the full matrix costs at least as much as branch-only.
	if r.FullAvg < r.BranchOnlyAvg-0.02 {
		t.Errorf("full matrix (%.3f) should cost >= branch-only (%.3f)",
			r.FullAvg, r.BranchOnlyAvg)
	}
	if ScopeText(r) == "" {
		t.Error("empty scope text")
	}
	// Rows follow workload.Names(), not the request order.
	if len(r.Rows) != 2 || r.Rows[0].Benchmark != "astar" || r.Rows[1].Benchmark != "lbm" {
		t.Fatalf("rows %+v, want astar then lbm", r.Rows)
	}
	if r.Rows[0].UnresolvedBranchFrac <= 0 {
		t.Error("astar must dispatch instructions under unresolved branches")
	}
}

func TestLRUSuite(t *testing.T) {
	r, err := NewRunner(RunnerOptions{}).LRU(context.Background(), fastSpec(), []string{"astar", "bzip2"})
	if err != nil {
		t.Fatal(err)
	}
	// §VII.A: both secure policies cost a little; sanity bounds only
	// (sub-percent effects need the full suite to stabilize).
	if math.Abs(r.NoUpdate-r.Always) > 0.2 {
		t.Errorf("no-update delta %.3f implausible", r.NoUpdate-r.Always)
	}
	if LRUText(r) == "" {
		t.Error("empty LRU text")
	}
}

func TestICacheSuite(t *testing.T) {
	r, err := NewRunner(RunnerOptions{}).ICache(context.Background(), fastSpec(), []string{"astar"})
	if err != nil {
		t.Fatal(err)
	}
	if r.With < r.Without-0.05 {
		t.Errorf("ICache filter should not speed things up: %.3f vs %.3f",
			r.With, r.Without)
	}
	if ICacheText(r) == "" {
		t.Error("empty icache text")
	}
}

func TestTable6Ordering(t *testing.T) {
	spec := fastSpec()
	cores, err := NewRunner(RunnerOptions{}).Table6(context.Background(), spec, []string{"astar", "hmmer"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 3 {
		t.Fatalf("expected 3 sensitivity cores, got %d", len(cores))
	}
	for _, tc := range cores {
		if tc.Avg.Baseline < tc.Avg.TPBuf-0.02 {
			t.Errorf("%s: Baseline (%.3f) below TPBuf (%.3f)",
				tc.Core, tc.Avg.Baseline, tc.Avg.TPBuf)
		}
	}
	if !strings.Contains(Table6Text(cores), "A57-like") {
		t.Error("Table6Text missing core sections")
	}
}

func TestTable4Driver(t *testing.T) {
	cfg := config.PaperCore()
	cfg.Mem.L2Size = 256 * 1024
	cfg.Mem.L3Size = 1024 * 1024
	outcomes, err := NewRunner(RunnerOptions{}).Table4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 10*len(core.Mechanisms) {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	for _, o := range outcomes {
		if o.Defense.Mechanism() == core.Origin && !o.Leaked {
			t.Errorf("%s must leak on Origin", o.Scenario)
		}
		if o.Defense.Mechanism() == core.Baseline && o.Leaked {
			t.Errorf("%s must be defended by Baseline", o.Scenario)
		}
	}
	if !strings.Contains(Table4Text(outcomes), "Mechanism") {
		t.Error("Table4Text malformed")
	}
}

func TestOverheadText(t *testing.T) {
	txt := OverheadText()
	for _, want := range []string{"0.05", "Xeon-like", "TPBuf"} {
		if !strings.Contains(txt, want) {
			t.Errorf("overhead text missing %q", want)
		}
	}
}

func TestComparisonSuite(t *testing.T) {
	r, err := NewRunner(RunnerOptions{}).Compare(context.Background(), fastSpec(), []string{"astar", "lbm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	// The software fence baseline should be markedly more expensive than
	// the hardware mechanism on branchy code (astar).
	for _, row := range r.Rows {
		if row.Benchmark == "astar" && row.SWFence < row.TPBuf {
			t.Errorf("astar: SW fence (%.3f) should cost more than CH+TPBuf (%.3f)",
				row.SWFence, row.TPBuf)
		}
	}
	if CompareText(r) == "" {
		t.Error("empty comparison text")
	}
}

func TestDTLBFilterSuite(t *testing.T) {
	r, err := NewRunner(RunnerOptions{}).DTLB(context.Background(), fastSpec(), []string{"astar", "milc"})
	if err != nil {
		t.Fatal(err)
	}
	if r.With < r.Without-0.05 {
		t.Errorf("DTLB filter should not speed things up: %.3f vs %.3f", r.With, r.Without)
	}
	if DTLBText(r) == "" {
		t.Error("empty dtlb text")
	}
}
