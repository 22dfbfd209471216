package exp

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// TestFailedRunsLeaveAggregates: a benchmark with a failed run has no row
// and is not counted in any suite's average, so a failure on one benchmark
// cannot drag the averages towards zero (or a normalized runtime to 0.000).
// Every lbm run but Origin deadlocks; astar costs 50% under every defense,
// so each average must read exactly astar's 0.5.
func TestFailedRunsLeaveAggregates(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	r.testExec = func(w *workload.Workload, spec RunSpec) pipeline.Result {
		if w.Profile.Name == "lbm" && spec.Sec.Mechanism != core.Origin {
			return pipeline.Result{Cycles: 1, Outcome: pipeline.OutcomeDeadlock}
		}
		cycles := uint64(100)
		if spec.Sec.Mechanism != core.Origin || w.Profile.FenceAfterBranches {
			cycles = 150
		}
		return pipeline.Result{Cycles: cycles, Committed: 100, Outcome: pipeline.OutcomeInstTarget}
	}
	ctx, spec, names := context.Background(), tinySpec(), []string{"astar", "lbm"}
	check := func(what string, got ...float64) {
		t.Helper()
		for _, v := range got {
			if math.Abs(v-0.5) > 1e-12 {
				t.Errorf("%s = %v, want 0.5 (astar alone)", what, got)
				return
			}
		}
	}
	// averageRow returns the cells of text's "Average" row, lbm's absence
	// checked on the way.
	averageRow := func(what, text string) []string {
		t.Helper()
		if strings.Contains(text, "lbm") {
			t.Errorf("%s has a row for lbm, whose runs failed:\n%s", what, text)
		}
		for _, line := range strings.Split(text, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == "Average" {
				return f[1:]
			}
		}
		t.Fatalf("%s has no Average row:\n%s", what, text)
		return nil
	}

	ev, err := r.Evaluation(ctx, spec, names)
	if err != nil {
		t.Fatal(err)
	}
	if got := averageRow("fig5", ev.Fig5Text()); !slices.Equal(got, []string{"1.500", "1.500", "1.500"}) {
		t.Errorf("fig5 average %v, want 1.500 for every mechanism", got)
	}
	averageRow("table5", ev.Table5Text())
	cores, err := r.Table6(ctx, spec, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cores {
		if len(tc.Rows) != 1 {
			t.Errorf("table6 %s: %d rows, want astar's alone", tc.Core, len(tc.Rows))
		}
		check("table6 "+tc.Core+" average", tc.Avg.Baseline, tc.Avg.CacheHit, tc.Avg.TPBuf)
	}
	scope, err := r.Scope(ctx, spec, names)
	if err != nil {
		t.Fatal(err)
	}
	check("scope averages", scope.BranchOnlyAvg, scope.FullAvg)
	lru, err := r.LRU(ctx, spec, names)
	if err != nil {
		t.Fatal(err)
	}
	check("lru", lru.Always, lru.NoUpdate, lru.Delayed)
	ic, err := r.ICache(ctx, spec, names)
	if err != nil {
		t.Fatal(err)
	}
	check("icache", ic.Without, ic.With)
	dt, err := r.DTLB(ctx, spec, names)
	if err != nil {
		t.Fatal(err)
	}
	check("dtlb", dt.Without, dt.With)
	cmp, err := r.Compare(ctx, spec, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 1 {
		t.Errorf("compare: %d rows, want astar's alone", len(cmp.Rows))
	}
	check("compare average", cmp.Avg.TPBuf, cmp.Avg.Invisi, cmp.Avg.SWFence)
	def, err := r.Defenses(ctx, spec, names, []string{"tpbuf"}, Options{}.attackCore())
	if err != nil {
		t.Fatal(err)
	}
	check("defenses tpbuf overhead", def.Rows[0].Overhead)

	// With no benchmark left the averages are 0 (normalized 1.000), not
	// NaN: encoding/json rejects NaN.
	ev, err = r.Evaluation(ctx, spec, []string{"lbm"})
	if err != nil {
		t.Fatal(err)
	}
	if got := averageRow("fig5 without rows", ev.Fig5Text()); !slices.Equal(got, []string{"1.000", "1.000", "1.000"}) {
		t.Errorf("fig5 average over no rows %v, want 1.000", got)
	}
}
