// Package report renders experiment results as the machine-readable JSON
// document shared by conspec-bench -json and the conspec-served job API:
// one wire format, produced locally or fetched from GET /v1/jobs/{id}.
// The field names and their order are a compatibility surface — they were
// lifted verbatim from conspec-bench's original -json output — so tools
// built against either producer keep working.
package report

import (
	"encoding/json"
	"io"

	"conspec/internal/attack"
	"conspec/internal/buildinfo"
	"conspec/internal/core"
	"conspec/internal/exp"
	"conspec/internal/obs"
	"conspec/internal/workload"
)

// Fig5Row is one benchmark's normalized runtimes.
type Fig5Row struct {
	Benchmark string  `json:"benchmark"`
	Baseline  float64 `json:"baseline"`
	CacheHit  float64 `json:"cachehit"`
	TPBuf     float64 `json:"tpbuf"`
}

// Table5Row is one benchmark's filter analysis.
type Table5Row struct {
	Benchmark       string  `json:"benchmark"`
	L1HitRate       float64 `json:"l1_hit_rate"`
	BaselineBlocked float64 `json:"baseline_blocked_rate"`
	CacheHitBlocked float64 `json:"cachehit_blocked_rate"`
	SpecHitRate     float64 `json:"speculative_hit_rate"`
	TPBufBlocked    float64 `json:"tpbuf_blocked_rate"`
	MismatchRate    float64 `json:"spattern_mismatch_rate"`
}

// AttackRow is one Table IV cell.
type AttackRow struct {
	Scenario  string `json:"scenario"`
	Class     string `json:"class,omitempty"`
	Mechanism string `json:"mechanism"`
	Correct   int    `json:"bytes_recovered"`
	Total     int    `json:"bytes_total"`
	Leaked    bool   `json:"leaked"`
}

// Table6Row is one benchmark's overheads on one sensitivity core.
type Table6Row struct {
	Benchmark string  `json:"benchmark"`
	Baseline  float64 `json:"baseline_overhead"`
	CacheHit  float64 `json:"cachehit_overhead"`
	TPBuf     float64 `json:"tpbuf_overhead"`
}

// Table6Core is Table VI for one core.
type Table6Core struct {
	Core    string      `json:"core"`
	Rows    []Table6Row `json:"rows"`
	Average Table6Row   `json:"average"`
}

// ScopeRow is one benchmark's §VI.C(1) decomposition.
type ScopeRow struct {
	Benchmark            string  `json:"benchmark"`
	BranchOnly           float64 `json:"branch_only_overhead"`
	Full                 float64 `json:"full_matrix_overhead"`
	UnresolvedBranchFrac float64 `json:"unresolved_branch_frac"`
}

// Scope is the §VI.C(1) suite.
type Scope struct {
	Rows          []ScopeRow `json:"rows"`
	BranchOnlyAvg float64    `json:"branch_only_avg"`
	FullAvg       float64    `json:"full_matrix_avg"`
}

// LRU is the §VII.A replacement-update study.
type LRU struct {
	Always   float64 `json:"conventional_update_overhead"`
	NoUpdate float64 `json:"no_update_overhead"`
	Delayed  float64 `json:"delayed_update_overhead"`
}

// ICache is the §VII.B filter study.
type ICache struct {
	Without     float64           `json:"overhead_without"`
	With        float64           `json:"overhead_with"`
	FetchStalls map[string]uint64 `json:"fetch_stalls"`
}

// DTLB is the DTLB-filter study.
type DTLB struct {
	Without float64           `json:"overhead_without"`
	With    float64           `json:"overhead_with"`
	Blocks  map[string]uint64 `json:"filter_blocks"`
}

// CompareRow is one benchmark's defense-comparison overheads.
type CompareRow struct {
	Benchmark string  `json:"benchmark"`
	TPBuf     float64 `json:"chtpbuf_overhead"`
	Invisi    float64 `json:"invisispec_overhead"`
	SWFence   float64 `json:"sw_fence_overhead"`
}

// Compare is the defense comparison suite.
type Compare struct {
	Rows    []CompareRow `json:"rows"`
	Average CompareRow   `json:"average"`
}

// DefenseRow is one registered backend's overhead-vs-security position in
// the defenses suite.
type DefenseRow struct {
	Defense        string  `json:"defense"`
	Backend        string  `json:"backend"`
	NormRuntime    float64 `json:"norm_runtime"`
	Leaked         bool    `json:"leaked"`
	BytesRecovered int     `json:"bytes_recovered"`
	BytesTotal     int     `json:"bytes_total"`
	ExpectBlock    bool    `json:"expect_block"`
}

// SeriesEntry is one run's sampled metric time series (fig5/table5 runs
// with a non-zero MetricsInterval only).
type SeriesEntry struct {
	Benchmark string      `json:"benchmark"`
	Mechanism string      `json:"mechanism"`
	Series    *obs.Series `json:"series"`
}

// EngineStats summarizes what the scheduler did for this document: how
// many unique simulations executed and how many submissions each cache
// tier absorbed. A warm disk cache shows up here as executed == 0.
type EngineStats struct {
	Executed  uint64 `json:"executed"`
	MemHits   uint64 `json:"mem_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Submitted uint64 `json:"submitted"`
	Panics    uint64 `json:"panics,omitempty"`
	// SkippedCycles/SkipSpans aggregate the stall skipper's meta-counters
	// over the document's executed runs: simulated cycles fast-forwarded
	// rather than stepped, and in how many spans.
	SkippedCycles uint64 `json:"skipped_cycles,omitempty"`
	SkipSpans     uint64 `json:"skip_spans,omitempty"`
}

// Engine converts the Runner's counters to their wire form.
func Engine(st exp.Stats) *EngineStats {
	return &EngineStats{
		Executed:      st.Executed,
		MemHits:       st.Hits,
		DiskHits:      st.DiskHits,
		Submitted:     st.Submitted(),
		Panics:        st.Panics,
		SkippedCycles: st.SkippedCycles,
		SkipSpans:     st.SkipSpans,
	}
}

// Report aggregates whatever suites ran. The fig5/table5/table4 fields
// keep their original names and positions so single-suite JSON output is
// unchanged; the remaining suites follow in -suite all order. Build stamps
// the producing binary into every document. Errors lists failed runs
// excluded from the aggregates (their wire shape is pinned by
// exp.RunError's MarshalJSON); a document with a non-empty errors array is
// partial. Engine carries the scheduler/cache-tier counters.
type Report struct {
	Build    buildinfo.Info `json:"build"`
	Fig5     []Fig5Row      `json:"fig5,omitempty"`
	Table5   []Table5Row    `json:"table5,omitempty"`
	Table4   []AttackRow    `json:"table4,omitempty"`
	Table6   []Table6Core   `json:"table6,omitempty"`
	Scope    *Scope         `json:"scope,omitempty"`
	LRU      *LRU           `json:"lru,omitempty"`
	ICache   *ICache        `json:"icache,omitempty"`
	DTLB     *DTLB          `json:"dtlb,omitempty"`
	Compare  *Compare       `json:"compare,omitempty"`
	Defenses []DefenseRow   `json:"defenses,omitempty"`
	Overhead string         `json:"overhead_text,omitempty"`
	Series   []SeriesEntry  `json:"series,omitempty"`
	Errors   []exp.RunError `json:"errors,omitempty"`
	Engine   *EngineStats   `json:"engine,omitempty"`
}

// New returns a Report stamped with the running binary's build identity.
func New() *Report {
	return &Report{Build: buildinfo.Get()}
}

// AddSuite folds one suite's typed result into the document. Fig5 and
// Table5 come from the same evaluation: adding either fills both (plus the
// per-run time series, when sampled).
func (r *Report) AddSuite(res *exp.SuiteResult) {
	switch res.Suite {
	case exp.SuiteFig5, exp.SuiteTable5:
		ev := res.Evaluation()
		r.Fig5 = fig5Rows(ev)
		r.Table5 = table5Rows(ev)
		r.Series = seriesEntries(ev)
	case exp.SuiteTable4:
		r.Table4 = attackRows(res.Table4())
	case exp.SuiteTable6:
		r.Table6 = table6Cores(res.Table6())
	case exp.SuiteScope:
		r.Scope = scopeDoc(res.Scope())
	case exp.SuiteLRU:
		v := res.LRU()
		r.LRU = &LRU{Always: v.Always, NoUpdate: v.NoUpdate, Delayed: v.Delayed}
	case exp.SuiteICache:
		v := res.ICache()
		r.ICache = &ICache{Without: v.Without, With: v.With, FetchStalls: v.Stalls}
	case exp.SuiteDTLB:
		v := res.DTLB()
		r.DTLB = &DTLB{Without: v.Without, With: v.With, Blocks: v.Blocks}
	case exp.SuiteCompare:
		r.Compare = compareDoc(res.Compare())
	case exp.SuiteDefenses:
		r.Defenses = defenseRows(res.Defenses())
	case exp.SuiteOverhead:
		r.Overhead = res.Text()
	}
}

// Finish stamps the engine's failed-run list and scheduler counters.
func (r *Report) Finish(runner *exp.Runner) {
	r.Errors = runner.Errors()
	r.Engine = Engine(runner.Stats())
}

// Encode writes the document as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func fig5Rows(ev *exp.Evaluation) []Fig5Row {
	rows := make([]Fig5Row, 0, len(ev.Benches))
	for _, b := range ev.Benches {
		rows = append(rows, Fig5Row{
			Benchmark: b.Name,
			Baseline:  1 + b.Overhead(core.Baseline),
			CacheHit:  1 + b.Overhead(core.CacheHit),
			TPBuf:     1 + b.Overhead(core.CacheHitTPBuf),
		})
	}
	return rows
}

func table5Rows(ev *exp.Evaluation) []Table5Row {
	rows := make([]Table5Row, 0, len(ev.Benches))
	for _, b := range ev.Benches {
		rows = append(rows, Table5Row{
			Benchmark:       b.Name,
			L1HitRate:       b.Results[core.Origin].L1D.HitRate(),
			BaselineBlocked: b.Results[core.Baseline].Filter.BlockedRate(),
			CacheHitBlocked: b.Results[core.CacheHit].Filter.BlockedRate(),
			SpecHitRate:     b.Results[core.CacheHit].Filter.SpecHitRate(),
			TPBufBlocked:    b.Results[core.CacheHitTPBuf].Filter.BlockedRate(),
			MismatchRate:    b.Results[core.CacheHitTPBuf].TPBuf.MismatchRate(),
		})
	}
	return rows
}

// seriesEntries collects the per-run metric time series out of an
// evaluation, in benchmark then mechanism order. Empty unless the runs
// were executed with a non-zero MetricsInterval.
func seriesEntries(ev *exp.Evaluation) []SeriesEntry {
	var out []SeriesEntry
	for _, b := range ev.Benches {
		for _, m := range core.Mechanisms {
			if s := b.Results[m].Series; s != nil {
				out = append(out, SeriesEntry{Benchmark: b.Name, Mechanism: m.String(), Series: s})
			}
		}
	}
	return out
}

func attackRows(outcomes []attack.Outcome) []AttackRow {
	rows := make([]AttackRow, 0, len(outcomes))
	for _, o := range outcomes {
		rows = append(rows, AttackRow{
			Scenario:  o.Scenario,
			Mechanism: o.Defense.Title(),
			Correct:   o.Correct,
			Total:     len(o.Secret),
			Leaked:    o.Leaked,
		})
	}
	return rows
}

func table6Cores(cores []exp.Table6Core) []Table6Core {
	out := make([]Table6Core, 0, len(cores))
	for _, tc := range cores {
		jc := Table6Core{
			Core: tc.Core,
			Average: Table6Row{
				Benchmark: tc.Avg.Benchmark,
				Baseline:  tc.Avg.Baseline,
				CacheHit:  tc.Avg.CacheHit,
				TPBuf:     tc.Avg.TPBuf,
			},
		}
		for _, r := range tc.Rows {
			jc.Rows = append(jc.Rows, Table6Row{
				Benchmark: r.Benchmark,
				Baseline:  r.Baseline,
				CacheHit:  r.CacheHit,
				TPBuf:     r.TPBuf,
			})
		}
		out = append(out, jc)
	}
	return out
}

func scopeDoc(r *exp.ScopeResult) *Scope {
	out := &Scope{BranchOnlyAvg: r.BranchOnlyAvg, FullAvg: r.FullAvg}
	for _, name := range workload.Names() {
		v, ok := r.PerBench[name]
		if !ok {
			continue
		}
		out.Rows = append(out.Rows, ScopeRow{
			Benchmark:            name,
			BranchOnly:           v[0],
			Full:                 v[1],
			UnresolvedBranchFrac: r.UnresolvedBranchFrac[name],
		})
	}
	return out
}

func defenseRows(r *exp.DefensesResult) []DefenseRow {
	rows := make([]DefenseRow, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, DefenseRow{
			Defense:        row.Name,
			Backend:        row.Title,
			NormRuntime:    1 + row.Overhead,
			Leaked:         row.Leaked,
			BytesRecovered: row.Recovered,
			BytesTotal:     row.SecretLen,
			ExpectBlock:    row.ExpectBlock,
		})
	}
	return rows
}

func compareDoc(r *exp.CompareResult) *Compare {
	out := &Compare{Average: CompareRow{
		Benchmark: r.Avg.Benchmark,
		TPBuf:     r.Avg.TPBuf,
		Invisi:    r.Avg.Invisi,
		SWFence:   r.Avg.SWFence,
	}}
	for _, row := range r.Rows {
		out.Rows = append(out.Rows, CompareRow{
			Benchmark: row.Benchmark,
			TPBuf:     row.TPBuf,
			Invisi:    row.Invisi,
			SWFence:   row.SWFence,
		})
	}
	return out
}
