package exp

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"conspec/internal/attack"
	"conspec/internal/config"
)

// SuiteID names one experiment suite, matching cmd/conspec-bench's -suite
// flag values.
type SuiteID string

const (
	SuiteFig5     SuiteID = "fig5"
	SuiteTable4   SuiteID = "table4"
	SuiteTable6   SuiteID = "table6"
	SuiteScope    SuiteID = "scope"
	SuiteLRU      SuiteID = "lru"
	SuiteICache   SuiteID = "icache"
	SuiteDTLB     SuiteID = "dtlb"
	SuiteCompare  SuiteID = "compare"
	SuiteOverhead SuiteID = "overhead"
	SuiteDefenses SuiteID = "defenses"
)

// Suite is one experiment suite's row in the registry: everything the
// engine, the CLIs, the service and the report know about it.
type Suite struct {
	ID SuiteID
	// Alias is a second name that runs the suite ("" for none).
	Alias string
	// Banner heads the suite's text output.
	Banner string
	// Stored reports whether a store-only Runner can answer the suite. It
	// is false for suites whose work is not in the result store: table4's
	// attack verdicts and the defenses suite's V1 verdicts, which the memo
	// holds but the persistent tier does not.
	Stored bool
	// run drives the suite; text renders what run returned.
	run  func(r *Runner, ctx context.Context, o Options) (any, error)
	text func(v any) string
}

// Suites is the registry, one row per suite in "-suite all" order. Every
// result type a driver returns carries its JSON tags: it is the type
// internal/exp/report serializes, so its field names and their order are
// the document's compatibility surface. SuiteDefenses is deliberately
// last, so adding it left "-suite all" output for the suites before it
// unchanged.
var Suites []Suite

// The table is filled in init because the drivers whose verdicts are not
// in the result store read their own row (refuseUnstored), which a package-level initializer
// that names those drivers may not do.
func init() {
	Suites = []Suite{
		// One Evaluation renders both Figure 5 and Table V.
		suite(SuiteFig5, "table5", "=== Figure 5: runtime normalized to Origin ===", true,
			benches((*Runner).Evaluation), func(e *Evaluation) string {
				return e.Fig5Text() + "\n=== Table V: filter analysis ===\n" + e.Table5Text()
			}),
		suite(SuiteTable4, "", "=== Table IV: security analysis ===", false,
			func(r *Runner, ctx context.Context, o Options) ([]attack.Outcome, error) {
				return r.Table4(ctx, o.attackCore())
			}, Table4Text),
		suite(SuiteTable6, "", "=== Table VI: core sensitivity ===", true, benches((*Runner).Table6), Table6Text),
		suite(SuiteScope, "", "=== §VI.C(1): matrix scope decomposition ===", true, benches((*Runner).Scope), ScopeText),
		suite(SuiteLRU, "", "=== §VII.A: secure replacement-update policies ===", true, benches((*Runner).LRU), LRUText),
		suite(SuiteICache, "", "=== §VII.B: ICache-hit filter extension ===", true, benches((*Runner).ICache), ICacheText),
		suite(SuiteDTLB, "", "=== DTLB-hit filter extension ===", true, benches((*Runner).DTLB), DTLBText),
		suite(SuiteCompare, "", "=== Defense comparison: CH+TPBuf vs InvisiSpec vs SW fence ===", true,
			benches((*Runner).Compare), CompareText),
		suite(SuiteOverhead, "", "=== §VI.E: hardware overhead model ===", true,
			func(*Runner, context.Context, Options) (string, error) { return OverheadText(), nil },
			func(s string) string { return s }),
		suite(SuiteDefenses, "", "=== Defense matrix: overhead vs Spectre V1 verdict ===", false,
			func(r *Runner, ctx context.Context, o Options) (*DefensesResult, error) {
				return r.Defenses(ctx, o.spec(), o.Benches, o.Defenses, o.attackCore())
			}, DefensesText),
	}
}

// suite builds a registry row from a typed driver and renderer.
func suite[T any](id SuiteID, alias, banner string, stored bool,
	run func(*Runner, context.Context, Options) (T, error), text func(T) string) Suite {
	return Suite{ID: id, Alias: alias, Banner: banner, Stored: stored,
		run:  func(r *Runner, ctx context.Context, o Options) (any, error) { return run(r, ctx, o) },
		text: func(v any) string { return text(v.(T)) }}
}

// benches adapts a driver over a run budget and a benchmark subset, the
// shape most suites share.
func benches[T any](f func(*Runner, context.Context, RunSpec, []string) (T, error)) func(*Runner, context.Context, Options) (T, error) {
	return func(r *Runner, ctx context.Context, o Options) (T, error) { return f(r, ctx, o.spec(), o.Benches) }
}

// SuitesNamed expands a suite name (conspec-bench's -suite, a serve
// JobSpec's suite) into the rows to run: "all" is every row, an ID or alias
// is its row. An unknown name errors listing the valid ones.
func SuitesNamed(name string) ([]Suite, error) {
	if name == "all" {
		return slices.Clone(Suites), nil
	}
	if s, ok := lookupSuite(name); ok {
		return []Suite{s}, nil
	}
	var valid []string
	for _, s := range Suites {
		valid = append(valid, string(s.ID))
		if s.Alias != "" {
			valid = append(valid, s.Alias)
		}
	}
	return nil, fmt.Errorf("unknown suite %q (valid: %s)", name, strings.Join(append(valid, "all"), ", "))
}

// lookupSuite returns the row a suite ID or alias names.
func lookupSuite(name string) (Suite, bool) {
	for _, s := range Suites {
		if string(s.ID) == name || s.Alias == name {
			return s, true
		}
	}
	return Suite{}, false
}

// refuseUnstored is a store-only Runner's answer to a suite whose registry
// row is not Stored: ErrNotStored, before the suite looks anything up or
// attacks anything. RunSuite and the unstored drivers both ask it.
func (r *Runner) refuseUnstored(id SuiteID) error {
	if s, _ := lookupSuite(string(id)); r.storeOnly && !s.Stored {
		return ErrNotStored
	}
	return nil
}

// Options parameterizes RunSuite.
type Options struct {
	// Spec is the per-run budget and machine; the zero value means
	// DefaultSpec().
	Spec RunSpec
	// Benches restricts suites to a benchmark subset (nil = all 22).
	Benches []string
	// AttackCore overrides the machine used by the table4 attack suite
	// (zero Name = PaperCore with the slimmed L2/L3 the PoCs use).
	AttackCore config.Core
	// Defenses restricts the defenses suite to a subset of registered
	// backends, by canonical name or alias (nil = all registered).
	Defenses []string
}

func (o Options) spec() RunSpec {
	if o.Spec == (RunSpec{}) {
		return DefaultSpec()
	}
	return o.Spec
}

func (o Options) attackCore() config.Core {
	if o.AttackCore.Name != "" {
		return o.AttackCore
	}
	cfg := config.PaperCore()
	cfg.Mem.L2Size = 256 * 1024
	cfg.Mem.L3Size = 1024 * 1024
	return cfg
}

// SuiteResult is one suite run's typed result: Value is what the suite's
// driver returned (*Evaluation for fig5, []attack.Outcome for table4,
// []OverheadTable for table6, the overhead model's text for overhead, a
// *…Result for the others).
type SuiteResult struct {
	Suite SuiteID
	Value any
	text  func(any) string
}

// Text renders the suite's result in the standard text form.
func (s *SuiteResult) Text() string { return s.text(s.Value) }

// RunSuite runs one suite, named by ID or alias, to completion (or
// cancellation) and returns its typed result. A store-only Runner refuses
// a suite that is not Stored before it looks anything up. On cancellation
// the result holds what completed alongside ctx.Err().
func (r *Runner) RunSuite(ctx context.Context, id SuiteID, opts Options) (*SuiteResult, error) {
	s, ok := lookupSuite(string(id))
	if !ok {
		return nil, fmt.Errorf("exp: unknown suite %q", id)
	}
	if err := r.refuseUnstored(s.ID); err != nil {
		return nil, err
	}
	if r.trace != nil {
		sp := r.trace.Begin(r.traceRoot, "suite:"+string(s.ID))
		r.mu.Lock()
		r.suiteSpans[s.ID] = sp
		r.mu.Unlock()
		defer func() {
			r.mu.Lock()
			delete(r.suiteSpans, s.ID)
			r.mu.Unlock()
			r.trace.End(sp)
		}()
	}
	v, err := s.run(r, ctx, opts)
	if err == nil && r.missed.Load() {
		// The suites leave a failed run out of their aggregates; a run
		// a store-only Runner could not answer fails the whole suite.
		err = ErrNotStored
	}
	return &SuiteResult{Suite: s.ID, Value: v, text: s.text}, err
}
