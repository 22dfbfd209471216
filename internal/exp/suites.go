package exp

import (
	"context"
	"fmt"
	"strings"

	"conspec/internal/attack"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/hw"
	"conspec/internal/mem"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// Table6 regenerates Table VI: the three defense mechanisms on the
// A57-like, I7-like and Xeon-like cores, one Figure 5 evaluation per core.
// Each core's evaluation shares the engine cache, so a repeated core/spec
// combination simulates nothing new.
func (r *Runner) Table6(ctx context.Context, spec RunSpec, names []string) ([]OverheadTable, error) {
	var out []OverheadTable
	for _, cfg := range config.SensitivityCores() {
		s := spec
		s.Core = cfg
		ev, err := r.evaluation(ctx, SuiteTable6, s, names)
		if err != nil {
			return nil, err
		}
		out = append(out, ev.Fig5)
	}
	return out, nil
}

// Table6Text renders the Table VI results with the paper's averages.
func Table6Text(cores []OverheadTable) string {
	var sb strings.Builder
	paperAvg := map[string][3]string{
		"A57-like":  {"41.1%", "11.0%", "6.0%"},
		"I7-like":   {"46.3%", "15.1%", "9.0%"},
		"Xeon-like": {"51.4%", "15.9%", "9.6%"},
	}
	for _, tc := range cores {
		fmt.Fprintf(&sb, "== %s ==\n", tc.Core)
		tw := newTable(&sb)
		writeOverheads(tw, tc, pct)
		if pa, ok := paperAvg[tc.Core]; ok {
			tw.row("Paper avg", pa[0], pa[1], pa[2])
		}
		tw.flush()
		sb.WriteString("\n")
	}
	return sb.String()
}

// ScopeRow is one benchmark's §VI.C(1) decomposition: its Baseline
// overhead under the branch-only and the full branch+memory matrix.
type ScopeRow struct {
	Benchmark  string  `json:"benchmark"`
	BranchOnly float64 `json:"branch_only_overhead"`
	Full       float64 `json:"full_matrix_overhead"`
	// UnresolvedBranchFrac is the fraction of dispatched instructions that
	// entered the machine while a branch was unresolved (astar analysis).
	UnresolvedBranchFrac float64 `json:"unresolved_branch_frac"`
}

// ScopeResult is the §VI.C(1) decomposition: how much of the Baseline's
// cost comes from branch-memory dependences alone versus the full
// branch+memory matrix. Rows are in workload.Names() order; the averages
// are summed in request order.
type ScopeResult struct {
	Rows          []ScopeRow `json:"rows"`
	BranchOnlyAvg float64    `json:"branch_only_avg"`
	FullAvg       float64    `json:"full_matrix_avg"`
}

// Scope measures Baseline overheads under the two matrix scopes. The
// Origin and full-matrix Baseline runs share cache keys with the fig5
// evaluation.
func (r *Runner) Scope(ctx context.Context, spec RunSpec, names []string) (*ScopeResult, error) {
	profiles, err := resolveProfiles(names)
	if err != nil {
		return nil, err
	}
	runs, err := r.profileRuns(ctx, SuiteScope, profiles, func(p workload.Profile) []runReq {
		return []runReq{
			{p, withSec(spec, pipeline.SecurityConfig{Mechanism: core.Origin})},
			{p, withSec(spec, pipeline.SecurityConfig{Mechanism: core.Baseline, Scope: core.ScopeBranchOnly})},
			{p, withSec(spec, pipeline.SecurityConfig{Mechanism: core.Baseline, Scope: core.ScopeBranchMem})},
		}
	}, func(p workload.Profile, res []pipeline.Result) string {
		return fmt.Sprintf("%-12s branch-only %+6.1f%%  full %+6.1f%%",
			p.Name, 100*Overhead(res[0], res[1]), 100*Overhead(res[0], res[2]))
	})
	out := &ScopeResult{}
	byName := make(map[string]ScopeRow)
	n := float64(len(runs))
	for _, pr := range runs {
		origin, full := pr.res[0], pr.res[2]
		row := ScopeRow{Benchmark: pr.p.Name, BranchOnly: Overhead(origin, pr.res[1]), Full: Overhead(origin, full)}
		if full.Committed > 0 {
			row.UnresolvedBranchFrac = float64(full.UnresolvedBranchAtDispatch) / float64(full.Committed)
		}
		byName[row.Benchmark] = row
		out.BranchOnlyAvg += row.BranchOnly / n
		out.FullAvg += row.Full / n
	}
	for _, name := range workload.Names() {
		if row, ok := byName[name]; ok {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, err
}

// ScopeText renders the §VI.C(1) decomposition.
func ScopeText(r *ScopeResult) string {
	var sb strings.Builder
	tw := newTable(&sb)
	tw.row("Benchmark", "Branch-only", "Branch+Mem", "UnresolvedBr@disp")
	tw.sep()
	for _, row := range r.Rows {
		tw.row(row.Benchmark, pct(row.BranchOnly), pct(row.Full), pct(row.UnresolvedBranchFrac))
	}
	tw.sep()
	tw.row("Average", pct(r.BranchOnlyAvg), pct(r.FullAvg), "")
	tw.row("Paper avg", "23.0%", "53.6%", "")
	tw.flush()
	return sb.String()
}

// LRUResult is the §VII.A secure replacement-update study on top of the
// full Cache-hit + TPBuf mechanism.
type LRUResult struct {
	// Overheads vs the Origin machine, averaged across benchmarks, for the
	// conventional, no-update and delayed-update policies.
	Always   float64 `json:"conventional_update_overhead"`
	NoUpdate float64 `json:"no_update_overhead"`
	Delayed  float64 `json:"delayed_update_overhead"`
}

// LRU measures the three §VII.A policies under CacheHit+TPBuf. The Origin
// and conventional-update runs share cache keys with the fig5 evaluation.
func (r *Runner) LRU(ctx context.Context, spec RunSpec, names []string) (*LRUResult, error) {
	profiles, err := resolveProfiles(names)
	if err != nil {
		return nil, err
	}
	runs, err := r.profileRuns(ctx, SuiteLRU, profiles, func(p workload.Profile) []runReq {
		reqs := []runReq{{p, withSec(spec, pipeline.SecurityConfig{Mechanism: core.Origin})}}
		for _, pol := range []mem.UpdatePolicy{mem.UpdateAlways, mem.UpdateNoSpec, mem.UpdateDelayed} {
			s := withSec(spec, pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf})
			s.L1DUpdate = pol
			reqs = append(reqs, runReq{p, s})
		}
		return reqs
	}, func(p workload.Profile, _ []pipeline.Result) string { return "lru: " + p.Name })
	var out LRUResult
	n := float64(len(runs))
	for _, pr := range runs {
		out.Always += Overhead(pr.res[0], pr.res[1]) / n
		out.NoUpdate += Overhead(pr.res[0], pr.res[2]) / n
		out.Delayed += Overhead(pr.res[0], pr.res[3]) / n
	}
	return &out, err
}

// LRUText renders the §VII.A comparison.
func LRUText(r *LRUResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CacheHit+TPBuf overhead vs Origin, by L1D replacement-update policy:\n")
	fmt.Fprintf(&sb, "  conventional update : %6.2f%%\n", 100*r.Always)
	fmt.Fprintf(&sb, "  no-update policy    : %6.2f%%  (paper: +0.71%% over conventional)\n", 100*r.NoUpdate)
	fmt.Fprintf(&sb, "  delayed-update      : %6.2f%%  (paper: recovers 0.26%% of no-update)\n", 100*r.Delayed)
	fmt.Fprintf(&sb, "  no-update cost      : %+6.2f%%\n", 100*(r.NoUpdate-r.Always))
	fmt.Fprintf(&sb, "  delayed-update gain : %+6.2f%%\n", 100*(r.NoUpdate-r.Delayed))
	return sb.String()
}

// ICacheResult is the §VII.B extension study.
type ICacheResult struct {
	Without float64 `json:"overhead_without"` // CacheHit+TPBuf overhead vs Origin
	With    float64 `json:"overhead_with"`    // same plus the ICache-hit filter
	// Stalls is the per-benchmark count of filter-induced fetch stalls.
	Stalls map[string]uint64 `json:"fetch_stalls"`
}

// ICache measures the ICache-hit filter's additional cost. Beyond the
// requested benchmarks it always includes the dedicated icache-stress
// kernel, because loop-resident SPEC-shaped kernels never miss the L1I and
// would report the filter as free by construction.
func (r *Runner) ICache(ctx context.Context, spec RunSpec, names []string) (*ICacheResult, error) {
	profiles, err := resolveProfiles(names)
	if err != nil {
		return nil, err
	}
	out := &ICacheResult{}
	out.Without, out.With, out.Stalls, err = r.filterStudy(ctx, SuiteICache, spec,
		append(profiles, workload.ICacheStress()),
		pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf, ICacheFilter: true},
		func(res pipeline.Result) uint64 { return res.FetchStallsICacheFilter })
	return out, err
}

// filterStudy measures a filter on top of CacheHit+TPBuf, the study the
// ICache and DTLB suites share: each profile runs under Origin,
// CacheHit+TPBuf and filtered (CacheHit+TPBuf with the filter on). It
// returns the average overheads vs Origin without and with the filter,
// and count of each benchmark's filtered run.
func (r *Runner) filterStudy(ctx context.Context, suite SuiteID, spec RunSpec, profiles []workload.Profile,
	filtered pipeline.SecurityConfig, count func(pipeline.Result) uint64) (without, with float64, counts map[string]uint64, err error) {
	runs, err := r.profileRuns(ctx, suite, profiles, func(p workload.Profile) []runReq {
		return []runReq{
			{p, withSec(spec, pipeline.SecurityConfig{Mechanism: core.Origin})},
			{p, withSec(spec, pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf})},
			{p, withSec(spec, filtered)},
		}
	}, func(p workload.Profile, _ []pipeline.Result) string { return string(suite) + ": " + p.Name })
	counts = make(map[string]uint64)
	n := float64(len(runs))
	for _, pr := range runs {
		without += Overhead(pr.res[0], pr.res[1]) / n
		with += Overhead(pr.res[0], pr.res[2]) / n
		counts[pr.p.Name] = count(pr.res[2])
	}
	return without, with, counts, err
}

// ICacheText renders the §VII.B study.
func ICacheText(r *ICacheResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ICache-hit filter extension (§VII.B), CacheHit+TPBuf overhead vs Origin:\n")
	fmt.Fprintf(&sb, "  without ICache filter: %6.2f%%\n", 100*r.Without)
	fmt.Fprintf(&sb, "  with ICache filter   : %6.2f%%\n", 100*r.With)
	fmt.Fprintf(&sb, "  additional cost      : %+6.2f%%\n", 100*(r.With-r.Without))
	return sb.String()
}

// Table4 regenerates Table IV by running every attack scenario under every
// mechanism. Its verdicts go through the memo like runs (Runner.attack) but
// are not in the result store, so the suite's row is not Stored and a
// store-only Runner refuses it. Every cell starts up front on the worker
// pool and the cells are joined in table order, so the outcomes and their
// progress events keep that order. On ctx expiry the outcomes completed
// before it, in order, are returned alongside ctx.Err().
func (r *Runner) Table4(ctx context.Context, cfg config.Core) ([]attack.Outcome, error) {
	if err := r.refuseUnstored(SuiteTable4); err != nil {
		return nil, err
	}
	var cells []func() (attack.Outcome, error)
	for _, name := range attack.ScenarioNames() {
		for _, m := range core.Mechanisms {
			cells = append(cells, r.attack(ctx, SuiteTable4, name, cfg, pipeline.SecurityConfig{Mechanism: m}))
		}
	}
	defer func() {
		for _, wait := range cells {
			wait()
		}
	}()
	var out []attack.Outcome
	for _, wait := range cells {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		o, err := wait()
		if err != nil {
			return out, err
		}
		out = append(out, o)
		r.emit(ProgressEvent{Suite: SuiteTable4, Benchmark: o.Scenario,
			Mechanism: o.Defense.Title(), Phase: PhaseBenchDone, Line: o.String()})
	}
	return out, nil
}

// Table4Text renders the attack matrix with the paper's expectations.
func Table4Text(outcomes []attack.Outcome) string {
	var sb strings.Builder
	tw := newTable(&sb)
	tw.row("Scenario", "Mechanism", "Recovered", "Result", "Paper")
	tw.sep()
	for _, o := range outcomes {
		status := "DEFENDED"
		if o.Leaked {
			status = "LEAKED"
		}
		want := "✓ defends"
		if !o.Defense.Closes(o.SharedMemory) {
			want = "✗ leaks"
		}
		tw.row(o.Scenario, o.Defense.Title(),
			fmt.Sprintf("%d/%d", o.Correct, len(o.Secret)), status, want)
	}
	tw.flush()
	return sb.String()
}

// OverheadText renders the §VI.E hardware model for all cores.
func OverheadText() string {
	var sb strings.Builder
	tech := hw.SMIC40()
	cores := append([]config.Core{config.PaperCore()}, config.SensitivityCores()...)
	for _, cfg := range cores {
		sb.WriteString(hw.Evaluate(tech, cfg).String())
		sb.WriteString("\n")
	}
	sb.WriteString("paper reference: matrix 0.05mm² (3.5% of 32KB cache), +1.4% critical path;\n")
	sb.WriteString("                 TPBuf 0.00079mm² (0.055% of 32KB cache)\n")
	return sb.String()
}

// DTLBResult measures this reproduction's DTLB-hit filter extension.
type DTLBResult struct {
	Without float64 `json:"overhead_without"` // CacheHit+TPBuf overhead vs Origin
	With    float64 `json:"overhead_with"`    // same plus the DTLB-hit filter
	// Blocks counts filter-induced blocks per benchmark.
	Blocks map[string]uint64 `json:"filter_blocks"`
}

// DTLB measures the DTLB-hit filter's additional cost.
func (r *Runner) DTLB(ctx context.Context, spec RunSpec, names []string) (*DTLBResult, error) {
	profiles, err := resolveProfiles(names)
	if err != nil {
		return nil, err
	}
	out := &DTLBResult{}
	out.Without, out.With, out.Blocks, err = r.filterStudy(ctx, SuiteDTLB, spec, profiles,
		pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf, DTLBFilter: true},
		func(res pipeline.Result) uint64 { return res.DTLBFilterBlocks })
	return out, err
}

// DTLBText renders the DTLB-filter study.
func DTLBText(r *DTLBResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DTLB-hit filter extension (closes the translation side channel):\n")
	fmt.Fprintf(&sb, "  CacheHit+TPBuf overhead without it: %6.2f%%\n", 100*r.Without)
	fmt.Fprintf(&sb, "  with the DTLB-hit filter          : %6.2f%%\n", 100*r.With)
	fmt.Fprintf(&sb, "  additional cost                   : %+6.2f%%\n", 100*(r.With-r.Without))
	return sb.String()
}
