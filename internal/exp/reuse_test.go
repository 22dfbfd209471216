package exp

import (
	"reflect"
	"testing"

	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// TestResultsIndependentOfPredecessor: RunWorkload releases each machine's
// caches to a pool the next machine of the same geometry draws from, so a
// run must not see anything of the run before it. Every backend × every
// profile runs twice on one goroutine, in forward and in reverse order, so
// each run lands on caches a different predecessor dirtied; a Table VI L2
// geometry sits in the middle of the sequence, with runs on either side of
// it. Both passes must produce identical Results.
func TestResultsIndependentOfPredecessor(t *testing.T) {
	type run struct {
		w    *workload.Workload
		spec RunSpec
	}
	base := DefaultSpec()
	base.Warmup, base.Measure = 500, 1500
	var runs []run
	add := func(c config.Core, w *workload.Workload, sec pipeline.SecurityConfig) {
		s := base
		s.Core, s.Sec = c, sec
		runs = append(runs, run{w, s})
	}
	paper := config.PaperCore()
	bigL2 := paper
	bigL2.Mem.L2Size, bigL2.Mem.L2Ways = config.I7Like().Mem.L2Size, config.I7Like().Mem.L2Ways
	profiles := workload.Profiles()
	for i, d := range core.Defenses() {
		for _, p := range profiles {
			w := workload.MustGenerate(p)
			add(paper, w, SecFor(d))
			if i == len(core.Defenses())/2 {
				add(bigL2, w, SecFor(d)) // change the L2 geometry, then back
			}
		}
	}

	forward := make([]pipeline.Result, len(runs))
	for i, r := range runs {
		forward[i] = RunWorkload(r.w, r.spec)
	}
	reverse := make([]pipeline.Result, len(runs))
	for i := len(runs) - 1; i >= 0; i-- {
		reverse[i] = RunWorkload(runs[i].w, runs[i].spec)
	}
	for i := range runs {
		if !reflect.DeepEqual(forward[i], reverse[i]) {
			t.Fatalf("run %d (%s, %v, L2 %d KB) differs with another predecessor:\nforward %+v\nreverse %+v",
				i, runs[i].w.Profile.Name, runs[i].spec.Sec.Mechanism, runs[i].spec.Core.Mem.L2Size/1024,
				forward[i], reverse[i])
		}
	}
}
