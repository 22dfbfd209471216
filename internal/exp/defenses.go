package exp

import (
	"context"
	"fmt"
	"strings"

	"conspec/internal/attack"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// DefenseRow is one registered backend's position in the overhead-vs-
// security trade-off: average runtime overhead versus the unprotected
// machine, and the leak verdict of the canonical Spectre V1 Flush+Reload
// PoC under that backend.
type DefenseRow struct {
	// Name is the canonical registry key; Title the display name.
	Name  string
	Title string
	// Overhead is the mean runtime overhead vs origin across the requested
	// benchmarks (0 for origin itself).
	Overhead float64
	// Leaked reports whether the V1 PoC recovered the secret; Recovered and
	// SecretLen are the byte counts behind the verdict.
	Leaked    bool
	Recovered int
	SecretLen int
	// ExpectBlock is the backend's V1 expectation: whether it closes the
	// shared-memory channel the PoC's Flush+Reload receiver uses. Origin
	// leaks by construction and SSBD only stops store bypass (V4), not
	// branch speculation.
	ExpectBlock bool
}

// DefensesResult is the defenses suite's dataset: one row per backend, in
// registry order.
type DefensesResult struct {
	Rows []DefenseRow
}

// SecFor translates a registered defense into the pipeline security
// configuration that runs it. This is the canonical Defense→SecurityConfig
// mapping every CLI shares; it never adds fields beyond Mechanism and SSBD,
// so memo run keys for the paper variants are unchanged.
func SecFor(d core.Defense) pipeline.SecurityConfig {
	return pipeline.SecurityConfig{Mechanism: d.Mechanism(), SSBD: d.SSBD()}
}

// resolveDefenses maps registry names (all registered backends when nil) to
// Defense values, rejecting unknown names with the registry listing.
func resolveDefenses(names []string) ([]core.Defense, error) {
	if len(names) == 0 {
		return core.Defenses(), nil
	}
	defs := make([]core.Defense, len(names))
	for i, n := range names {
		d, err := core.LookupDefense(n)
		if err != nil {
			return nil, err
		}
		defs[i] = d
	}
	return defs, nil
}

// v1Scenario names the canonical Spectre V1 Flush+Reload PoC
// (attack.V1FlushReload), the attack behind every defense row's verdict.
const v1Scenario = "spectre-v1/flush+reload"

// Defenses runs the defense-matrix suite: every requested backend (all
// registered ones when defNames is nil) is measured for average overhead vs
// origin on the requested benchmarks, and attacked with the canonical V1
// Flush+Reload PoC for a leak verdict. Overhead runs flow through the memo
// cache — the paper variants share keys with fig5, invisispec with the
// compare suite — and so do the verdicts (Runner.attack): the paper
// variants' share table4's V1 Flush+Reload cells on the same attack core.
// The verdicts run next to the overhead runs, each holding a worker slot.
// They are not in the result store, so the suite's row is not Stored and a
// store-only Runner refuses the suite before any verdict starts.
func (r *Runner) Defenses(ctx context.Context, spec RunSpec, names []string, defNames []string, attackCfg config.Core) (*DefensesResult, error) {
	if err := r.refuseUnstored(SuiteDefenses); err != nil {
		return nil, err
	}
	defs, err := resolveDefenses(defNames)
	if err != nil {
		return nil, err
	}
	profiles, err := resolveProfiles(names)
	if err != nil {
		return nil, err
	}
	// Every backend's verdict starts up front, so the verdicts overlap the
	// overhead runs and each other; all are joined before Defenses returns.
	v1 := make([]func() (attack.Outcome, error), len(defs))
	for i, d := range defs {
		v1[i] = r.attack(ctx, SuiteDefenses, v1Scenario, attackCfg, SecFor(d))
	}
	defer func() {
		for _, wait := range v1 {
			wait()
		}
	}()
	out := &DefensesResult{Rows: make([]DefenseRow, len(defs))}
	for i, d := range defs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		row := DefenseRow{Name: d.Name(), Title: d.Title(), ExpectBlock: d.Closes(true)}
		runs, err := r.profileRuns(ctx, SuiteDefenses, profiles, func(p workload.Profile) []runReq {
			return []runReq{
				{p, withSec(spec, pipeline.SecurityConfig{Mechanism: core.Origin})},
				{p, withSec(spec, SecFor(d))},
			}
		}, nil)
		o, v1Err := v1[i]()
		if err != nil {
			return out, err
		}
		if v1Err != nil {
			return out, v1Err
		}
		n := float64(len(runs))
		for _, pr := range runs {
			row.Overhead += Overhead(pr.res[0], pr.res[1]) / n
		}
		row.Leaked = o.Leaked
		row.Recovered = o.Correct
		row.SecretLen = len(o.Secret)
		out.Rows[i] = row
		r.emit(ProgressEvent{Suite: SuiteDefenses, Benchmark: d.Name(),
			Mechanism: d.Title(), Phase: PhaseBenchDone,
			Line: fmt.Sprintf("%-15s overhead %+6.2f%%  v1 %s", d.Name(),
				100*row.Overhead, verdict(row.Leaked))})
	}
	return out, nil
}

func verdict(leaked bool) string {
	if leaked {
		return "LEAKED"
	}
	return "DEFENDED"
}

// DefensesText renders the Fig5-style overhead-vs-security table across all
// backends.
func DefensesText(r *DefensesResult) string {
	var sb strings.Builder
	tw := newTable(&sb)
	tw.row("Defense", "Backend", "Norm.runtime", "Spectre V1", "Recovered", "Expected")
	tw.sep()
	for _, row := range r.Rows {
		want := "✓ blocks v1"
		if !row.ExpectBlock {
			want = "✗ leaks v1"
		}
		tw.row(row.Name, row.Title,
			fmt.Sprintf("%.3f", 1+row.Overhead),
			verdict(row.Leaked),
			fmt.Sprintf("%d/%d", row.Recovered, row.SecretLen),
			want)
	}
	tw.flush()
	return sb.String()
}
