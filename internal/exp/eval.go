package exp

import (
	"context"
	"fmt"
	"strings"

	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// BenchResult holds one benchmark's runs under every mechanism.
type BenchResult struct {
	Name           string
	PaperL1HitRate float64
	Results        map[core.Mechanism]pipeline.Result
}

// Overhead returns the benchmark's runtime overhead of m relative to Origin.
func (b BenchResult) Overhead(m core.Mechanism) float64 {
	return Overhead(b.Results[core.Origin], b.Results[m])
}

// Evaluation is the shared dataset behind Figure 5 and Table V: every
// benchmark run under every mechanism with identical instruction budgets.
type Evaluation struct {
	Spec    RunSpec
	Benches []BenchResult
}

// Evaluation measures the named benchmarks (all 22 when names is nil)
// under all four mechanisms through the engine's memo cache. Runs execute
// in parallel on the worker pool; once a benchmark's runs complete, each
// emits a bench-done event carrying the legacy progress line.
func (r *Runner) Evaluation(ctx context.Context, spec RunSpec, names []string) (*Evaluation, error) {
	return r.evaluation(ctx, SuiteFig5, spec, names)
}

// evaluation is Evaluation with the suite attribution parameterized, so
// table6's embedded evaluations tag their events as table6.
func (r *Runner) evaluation(ctx context.Context, suite SuiteID, spec RunSpec, names []string) (*Evaluation, error) {
	profiles, err := resolveProfiles(names)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Spec: spec, Benches: make([]BenchResult, len(profiles))}
	for i, p := range profiles {
		ev.Benches[i] = BenchResult{
			Name:           p.Name,
			PaperL1HitRate: p.PaperL1HitRate,
			Results:        make(map[core.Mechanism]pipeline.Result),
		}
	}
	err = r.eachProfile(ctx, profiles, func(i int, p workload.Profile) error {
		reqs := make([]runReq, len(core.Mechanisms))
		for k, m := range core.Mechanisms {
			s := spec
			s.Sec.Mechanism = m
			reqs[k] = runReq{p, s}
		}
		res, errs := r.runAll(ctx, suite, reqs)
		for k, m := range core.Mechanisms {
			// A failed run is recorded for Errors(); the benchmark's
			// result map simply lacks this mechanism. Only engine-wide
			// cancellation aborts the whole evaluation.
			if errs[k] != nil {
				continue
			}
			ev.Benches[i].Results[m] = res[k]
			r.emit(ProgressEvent{Suite: suite, Benchmark: p.Name,
				Mechanism: m.String(), Phase: PhaseBenchDone, Cycles: res[k].Cycles,
				Line: fmt.Sprintf("%-12s %-34s %8d cycles (IPC %.2f)",
					p.Name, m, res[k].Cycles, res[k].IPC())})
		}
		return nil
	})
	return ev, err
}

// AverageOverhead returns the arithmetic-mean overhead of m across benches.
func (e *Evaluation) AverageOverhead(m core.Mechanism) float64 {
	if len(e.Benches) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range e.Benches {
		sum += b.Overhead(m)
	}
	return sum / float64(len(e.Benches))
}

// averageRate averages f over benches.
func (e *Evaluation) averageRate(f func(BenchResult) float64) float64 {
	if len(e.Benches) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range e.Benches {
		sum += f(b)
	}
	return sum / float64(len(e.Benches))
}

// Fig5Text renders Figure 5: per-benchmark runtime normalized to Origin for
// the three defense mechanisms, plus the suite average. The paper's
// reference averages (Baseline 1.536, Cache-hit 1.128, +TPBuf 1.068) are
// printed alongside for comparison.
func (e *Evaluation) Fig5Text() string {
	var sb strings.Builder
	tw := newTable(&sb)
	tw.row("Benchmark", "Baseline", "Cache-hit", "CH+TPBuf")
	tw.sep()
	for _, b := range e.Benches {
		tw.row(b.Name,
			fmt.Sprintf("%.3f", 1+b.Overhead(core.Baseline)),
			fmt.Sprintf("%.3f", 1+b.Overhead(core.CacheHit)),
			fmt.Sprintf("%.3f", 1+b.Overhead(core.CacheHitTPBuf)))
	}
	tw.sep()
	tw.row("Average",
		fmt.Sprintf("%.3f", 1+e.AverageOverhead(core.Baseline)),
		fmt.Sprintf("%.3f", 1+e.AverageOverhead(core.CacheHit)),
		fmt.Sprintf("%.3f", 1+e.AverageOverhead(core.CacheHitTPBuf)))
	tw.row("Paper avg", "1.536", "1.128", "1.068")
	tw.flush()
	return sb.String()
}

// Table5Text renders Table V: the filter analysis.
func (e *Evaluation) Table5Text() string {
	var sb strings.Builder
	tw := newTable(&sb)
	tw.row("Benchmark", "L1Hit", "Base:Blocked", "CH:Blocked", "CH:SpecHit", "TP:Blocked", "TP:Mismatch")
	tw.sep()
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	for _, b := range e.Benches {
		or := b.Results[core.Origin]
		ba := b.Results[core.Baseline]
		ch := b.Results[core.CacheHit]
		tp := b.Results[core.CacheHitTPBuf]
		tw.row(b.Name,
			pct(or.L1D.HitRate()),
			pct(ba.Filter.BlockedRate()),
			pct(ch.Filter.BlockedRate()),
			pct(ch.Filter.SpecHitRate()),
			pct(tp.Filter.BlockedRate()),
			pct(tp.TPBuf.MismatchRate()))
	}
	tw.sep()
	tw.row("Average",
		pct(e.averageRate(func(b BenchResult) float64 { return b.Results[core.Origin].L1D.HitRate() })),
		pct(e.averageRate(func(b BenchResult) float64 { return b.Results[core.Baseline].Filter.BlockedRate() })),
		pct(e.averageRate(func(b BenchResult) float64 { return b.Results[core.CacheHit].Filter.BlockedRate() })),
		pct(e.averageRate(func(b BenchResult) float64 { return b.Results[core.CacheHit].Filter.SpecHitRate() })),
		pct(e.averageRate(func(b BenchResult) float64 { return b.Results[core.CacheHitTPBuf].Filter.BlockedRate() })),
		pct(e.averageRate(func(b BenchResult) float64 { return b.Results[core.CacheHitTPBuf].TPBuf.MismatchRate() })))
	tw.row("Paper avg", "88.7%", "73.6%", "3.6%", "89.6%", "1.7%", "18.2%")
	tw.flush()
	return sb.String()
}
