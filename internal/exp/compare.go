package exp

import (
	"context"
	"fmt"
	"strings"

	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// CompareRow holds one benchmark's overheads for the defense comparison.
type CompareRow struct {
	Benchmark string  `json:"benchmark"`
	TPBuf     float64 `json:"chtpbuf_overhead"`    // Cache-hit + TPBuf (the paper's mechanism)
	Invisi    float64 `json:"invisispec_overhead"` // InvisiSpec-like comparator
	SWFence   float64 `json:"sw_fence_overhead"`   // LFENCE-style software mitigation
}

// CompareResult is the head-to-head defense comparison: the paper's full
// mechanism, the InvisiSpec-like related-work comparator, and the software
// fence mitigation (§VIII), all against the same Origin runs.
type CompareResult struct {
	Rows []CompareRow `json:"rows"`
	Avg  CompareRow   `json:"average"`
}

// Compare measures the three defenses across the benchmarks. The Origin
// and CacheHit+TPBuf runs share cache keys with the fig5 evaluation; the
// fence-recompiled kernel is a distinct workload (the full profile, not
// just its name, feeds the cache key) and is simulated separately.
func (r *Runner) Compare(ctx context.Context, spec RunSpec, names []string) (*CompareResult, error) {
	profiles, err := resolveProfiles(names)
	if err != nil {
		return nil, err
	}
	runs, err := r.profileRuns(ctx, SuiteCompare, profiles, func(p workload.Profile) []runReq {
		// Software mitigation: the same kernel recompiled with a fence
		// after every conditional branch, run on the UNPROTECTED core.
		pf := p
		pf.FenceAfterBranches = true
		origin := withSec(spec, pipeline.SecurityConfig{Mechanism: core.Origin})
		return []runReq{
			{p, origin},
			{p, withSec(spec, pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf})},
			{p, withSec(spec, pipeline.SecurityConfig{Mechanism: core.InvisiSpec})},
			{pf, origin},
		}
	}, func(p workload.Profile, res []pipeline.Result) string {
		row := compareRow(p.Name, res)
		return fmt.Sprintf("%-12s tpbuf %+6.1f%%  invisispec %+6.1f%%  sw-fence %+6.1f%%",
			p.Name, 100*row.TPBuf, 100*row.Invisi, 100*row.SWFence)
	})
	if err != nil {
		return nil, err
	}
	out := &CompareResult{}
	n := float64(len(runs))
	for _, pr := range runs {
		row := compareRow(pr.p.Name, pr.res)
		out.Rows = append(out.Rows, row)
		out.Avg.TPBuf += row.TPBuf / n
		out.Avg.Invisi += row.Invisi / n
		out.Avg.SWFence += row.SWFence / n
	}
	out.Avg.Benchmark = "Average"
	return out, nil
}

// compareRow computes one benchmark's overheads from its Compare runs:
// origin, CH+TPBuf, InvisiSpec and the fence-recompiled kernel on origin.
func compareRow(name string, res []pipeline.Result) CompareRow {
	return CompareRow{Benchmark: name, TPBuf: Overhead(res[0], res[1]),
		Invisi: Overhead(res[0], res[2]), SWFence: Overhead(res[0], res[3])}
}

// CompareText renders the comparison table.
func CompareText(r *CompareResult) string {
	var sb strings.Builder
	tw := newTable(&sb)
	tw.row("Benchmark", "CH+TPBuf", "InvisiSpec", "SW fence")
	tw.sep()
	for _, row := range r.Rows {
		tw.row(row.Benchmark, pct(row.TPBuf), pct(row.Invisi), pct(row.SWFence))
	}
	tw.sep()
	tw.row("Average", pct(r.Avg.TPBuf), pct(r.Avg.Invisi), pct(r.Avg.SWFence))
	tw.flush()
	sb.WriteString("\nCH+TPBuf and InvisiSpec are hardware mechanisms (InvisiSpec also\n")
	sb.WriteString("defends the non-shared-memory channels TPBuf misses, at the cost\n")
	sb.WriteString("shown). SW fence is the LFENCE-style recompilation baseline.\n")
	return sb.String()
}
