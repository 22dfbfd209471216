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
)

// Fig5Row is one benchmark's Figure 5 bar group: runtime normalized to
// Origin, 1+overhead of exp's row.
type Fig5Row struct {
	Benchmark string  `json:"benchmark"`
	Baseline  float64 `json:"baseline"`
	CacheHit  float64 `json:"cachehit"`
	TPBuf     float64 `json:"tpbuf"`
}

// AttackRow is one Table IV cell: an attack.Outcome's scenario, defense
// title and byte counts.
type AttackRow struct {
	Scenario  string `json:"scenario"`
	Mechanism string `json:"mechanism"`
	Correct   int    `json:"bytes_recovered"`
	Total     int    `json:"bytes_total"`
	Leaked    bool   `json:"leaked"`
}

// DefenseRow is one registered backend's overhead-vs-security position in
// the defenses suite, its overhead as normalized runtime.
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
// unchanged; the remaining suites follow in -suite all order. Most suites
// appear as exp's own result types, which carry the JSON tags; the wire
// types above exist only where the wire value differs from exp's. Build
// stamps the producing binary into every document. Errors lists failed
// runs excluded from the aggregates (their wire shape is pinned by
// exp.RunError's MarshalJSON); a document with a non-empty errors array is
// partial. Engine carries the scheduler/cache-tier counters.
type Report struct {
	Build    buildinfo.Info      `json:"build"`
	Fig5     []Fig5Row           `json:"fig5,omitempty"`
	Table5   []exp.Table5Row     `json:"table5,omitempty"`
	Table4   []AttackRow         `json:"table4,omitempty"`
	Table6   []exp.OverheadTable `json:"table6,omitempty"`
	Scope    *exp.ScopeResult    `json:"scope,omitempty"`
	LRU      *exp.LRUResult      `json:"lru,omitempty"`
	ICache   *exp.ICacheResult   `json:"icache,omitempty"`
	DTLB     *exp.DTLBResult     `json:"dtlb,omitempty"`
	Compare  *exp.CompareResult  `json:"compare,omitempty"`
	Defenses []DefenseRow        `json:"defenses,omitempty"`
	Overhead string              `json:"overhead_text,omitempty"`
	Series   []SeriesEntry       `json:"series,omitempty"`
	Errors   []exp.RunError      `json:"errors,omitempty"`
	Engine   *EngineStats        `json:"engine,omitempty"`
}

// New returns a Report stamped with the running binary's build identity.
func New() *Report {
	return &Report{Build: buildinfo.Get()}
}

// AddSuite folds one suite's typed result into the document. The fig5
// suite's Evaluation fills fig5, table5 and, when sampled, the per-run
// time series.
func (r *Report) AddSuite(res *exp.SuiteResult) {
	switch v := res.Value.(type) {
	case *exp.Evaluation:
		r.Fig5 = make([]Fig5Row, 0, len(v.Fig5.Rows))
		for _, b := range v.Fig5.Rows {
			r.Fig5 = append(r.Fig5, Fig5Row{Benchmark: b.Benchmark,
				Baseline: 1 + b.Baseline, CacheHit: 1 + b.CacheHit, TPBuf: 1 + b.TPBuf})
		}
		r.Table5 = v.Table5
		r.Series = seriesEntries(v)
	case []attack.Outcome:
		r.Table4 = make([]AttackRow, 0, len(v))
		for _, o := range v {
			r.Table4 = append(r.Table4, AttackRow{Scenario: o.Scenario, Mechanism: o.Defense.Title(),
				Correct: o.Correct, Total: len(o.Secret), Leaked: o.Leaked})
		}
	case []exp.OverheadTable:
		r.Table6 = v
	case *exp.ScopeResult:
		r.Scope = v
	case *exp.LRUResult:
		r.LRU = v
	case *exp.ICacheResult:
		r.ICache = v
	case *exp.DTLBResult:
		r.DTLB = v
	case *exp.CompareResult:
		r.Compare = v
	case *exp.DefensesResult:
		r.Defenses = make([]DefenseRow, 0, len(v.Rows))
		for _, d := range v.Rows {
			r.Defenses = append(r.Defenses, DefenseRow{Defense: d.Name, Backend: d.Title,
				NormRuntime: 1 + d.Overhead, Leaked: d.Leaked, BytesRecovered: d.Recovered,
				BytesTotal: d.SecretLen, ExpectBlock: d.ExpectBlock})
		}
	case string: // the overhead model's text
		r.Overhead = v
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
