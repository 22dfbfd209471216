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

// OverheadRow is one benchmark's runtime overheads vs Origin under the
// three defense mechanisms: a Figure 5 bar group (plotted as 1+overhead)
// or a Table VI row.
type OverheadRow struct {
	Benchmark string  `json:"benchmark"`
	Baseline  float64 `json:"baseline_overhead"`
	CacheHit  float64 `json:"cachehit_overhead"`
	TPBuf     float64 `json:"tpbuf_overhead"`
}

// OverheadTable is one core's overhead rows and their average: Figure 5 on
// the paper core, one core of Table VI.
type OverheadTable struct {
	Core string        `json:"core"`
	Rows []OverheadRow `json:"rows"`
	Avg  OverheadRow   `json:"average"`
}

// Table5Row is one benchmark's Table V filter analysis.
type Table5Row struct {
	Benchmark       string  `json:"benchmark"`
	L1HitRate       float64 `json:"l1_hit_rate"`
	BaselineBlocked float64 `json:"baseline_blocked_rate"`
	CacheHitBlocked float64 `json:"cachehit_blocked_rate"`
	SpecHitRate     float64 `json:"speculative_hit_rate"`
	TPBufBlocked    float64 `json:"tpbuf_blocked_rate"`
	MismatchRate    float64 `json:"spattern_mismatch_rate"`
}

// Evaluation is the shared dataset behind Figure 5 and Table V: every
// benchmark run under every mechanism with identical instruction budgets.
// Benches holds every requested benchmark, a failed run's mechanism
// missing from its Results. Fig5 and Table5 (with its average, Table5Avg)
// are computed once from the benchmarks whose runs all completed, in
// request order; a benchmark with a failed run has no row and is not
// averaged over.
type Evaluation struct {
	Spec      RunSpec
	Benches   []BenchResult
	Fig5      OverheadTable
	Table5    []Table5Row
	Table5Avg Table5Row
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
	err = r.fanOut(ctx, suite, profiles, func(p workload.Profile) []runReq {
		reqs := make([]runReq, len(core.Mechanisms))
		for k, m := range core.Mechanisms {
			s := spec
			s.Sec.Mechanism = m
			reqs[k] = runReq{p, s}
		}
		return reqs
	}, func(i int, res []pipeline.Result, errs []error) {
		b := &ev.Benches[i]
		for k, m := range core.Mechanisms {
			// A failed run is recorded for Errors(); the benchmark's
			// result map simply lacks this mechanism. Only engine-wide
			// cancellation aborts the whole evaluation.
			if errs[k] != nil {
				continue
			}
			b.Results[m] = res[k]
			if r.onEvent != nil {
				r.emit(ProgressEvent{Suite: suite, Benchmark: b.Name,
					Mechanism: m.String(), Phase: PhaseBenchDone, Cycles: res[k].Cycles,
					Line: fmt.Sprintf("%-12s %-34s %8d cycles (IPC %.2f)",
						b.Name, m, res[k].Cycles, res[k].IPC())})
			}
		}
	})
	ev.tabulate()
	return ev, err
}

// tabulate computes the Figure 5 and Table V rows and averages.
func (e *Evaluation) tabulate() {
	e.Fig5.Core = e.Spec.Core.Name
	for _, b := range e.Benches {
		if len(b.Results) < len(core.Mechanisms) {
			continue
		}
		e.Fig5.Rows = append(e.Fig5.Rows, OverheadRow{Benchmark: b.Name,
			Baseline: b.Overhead(core.Baseline), CacheHit: b.Overhead(core.CacheHit),
			TPBuf: b.Overhead(core.CacheHitTPBuf)})
		ch, tp := b.Results[core.CacheHit], b.Results[core.CacheHitTPBuf]
		e.Table5 = append(e.Table5, Table5Row{Benchmark: b.Name,
			L1HitRate:       b.Results[core.Origin].L1D.HitRate(),
			BaselineBlocked: b.Results[core.Baseline].Filter.BlockedRate(),
			CacheHitBlocked: ch.Filter.BlockedRate(),
			SpecHitRate:     ch.Filter.SpecHitRate(),
			TPBufBlocked:    tp.Filter.BlockedRate(),
			MismatchRate:    tp.TPBuf.MismatchRate()})
	}
	rows := e.Fig5.Rows
	e.Fig5.Avg = OverheadRow{Benchmark: "Average",
		Baseline: mean(rows, func(r OverheadRow) float64 { return r.Baseline }),
		CacheHit: mean(rows, func(r OverheadRow) float64 { return r.CacheHit }),
		TPBuf:    mean(rows, func(r OverheadRow) float64 { return r.TPBuf })}
	t5 := e.Table5
	e.Table5Avg = Table5Row{Benchmark: "Average",
		L1HitRate:       mean(t5, func(r Table5Row) float64 { return r.L1HitRate }),
		BaselineBlocked: mean(t5, func(r Table5Row) float64 { return r.BaselineBlocked }),
		CacheHitBlocked: mean(t5, func(r Table5Row) float64 { return r.CacheHitBlocked }),
		SpecHitRate:     mean(t5, func(r Table5Row) float64 { return r.SpecHitRate }),
		TPBufBlocked:    mean(t5, func(r Table5Row) float64 { return r.TPBufBlocked }),
		MismatchRate:    mean(t5, func(r Table5Row) float64 { return r.MismatchRate })}
}

// mean sums f over rows in row order and divides by their count; no rows
// average to 0, not NaN, which encoding/json rejects.
func mean[R any](rows []R, f func(R) float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += f(r)
	}
	return sum / float64(len(rows))
}

// Fig5Text renders Figure 5: per-benchmark runtime normalized to Origin for
// the three defense mechanisms, plus the suite average. The paper's
// reference averages (Baseline 1.536, Cache-hit 1.128, +TPBuf 1.068) are
// printed alongside for comparison.
func (e *Evaluation) Fig5Text() string {
	var sb strings.Builder
	tw := newTable(&sb)
	writeOverheads(tw, e.Fig5, func(v float64) string { return fmt.Sprintf("%.3f", 1+v) })
	tw.row("Paper avg", "1.536", "1.128", "1.068")
	tw.flush()
	return sb.String()
}

// writeOverheads writes an overhead table's header, rows and average, each
// overhead formatted by cell.
func writeOverheads(tw *table, t OverheadTable, cell func(float64) string) {
	tw.row("Benchmark", "Baseline", "Cache-hit", "CH+TPBuf")
	tw.sep()
	row := func(r OverheadRow) { tw.row(r.Benchmark, cell(r.Baseline), cell(r.CacheHit), cell(r.TPBuf)) }
	for _, r := range t.Rows {
		row(r)
	}
	tw.sep()
	row(t.Avg)
}

// Table5Text renders Table V: the filter analysis.
func (e *Evaluation) Table5Text() string {
	var sb strings.Builder
	tw := newTable(&sb)
	tw.row("Benchmark", "L1Hit", "Base:Blocked", "CH:Blocked", "CH:SpecHit", "TP:Blocked", "TP:Mismatch")
	tw.sep()
	row := func(r Table5Row) {
		tw.row(r.Benchmark, pct(r.L1HitRate), pct(r.BaselineBlocked), pct(r.CacheHitBlocked),
			pct(r.SpecHitRate), pct(r.TPBufBlocked), pct(r.MismatchRate))
	}
	for _, r := range e.Table5 {
		row(r)
	}
	tw.sep()
	row(e.Table5Avg)
	tw.row("Paper avg", "88.7%", "73.6%", "3.6%", "89.6%", "1.7%", "18.2%")
	tw.flush()
	return sb.String()
}
