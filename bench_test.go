// Package conspec's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkFig5              Figure 5  — normalized performance
//	BenchmarkTable4            Table IV  — security matrix
//	BenchmarkTable5            Table V   — filter analysis (same runs as Fig5)
//	BenchmarkTable6            Table VI  — A57/I7/Xeon sensitivity
//	BenchmarkMatrixScope       §VI.C(1)  — branch-only vs full matrix
//	BenchmarkLRUPolicies       §VII.A    — secure replacement updates
//	BenchmarkICacheFilter      §VII.B    — ICache-hit filter extension
//	BenchmarkHardwareOverhead  §VI.E     — area/timing model
//
// Each reports the headline numbers as custom metrics (overhead percentages
// etc.) so `go test -bench` output doubles as a results summary. Component
// microbenchmarks at the bottom measure the simulator itself.
package conspec

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"conspec/internal/asm"
	"conspec/internal/branch"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/exp"
	"conspec/internal/hw"
	"conspec/internal/isa"
	"conspec/internal/mem"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// benchSpec keeps per-iteration cost manageable; the cmd/conspec-bench tool
// runs the full-budget versions.
func benchSpec() exp.RunSpec {
	s := exp.DefaultSpec()
	s.Warmup = 10_000
	s.Measure = 50_000
	return s
}

// benchNames is the subset used by the heavyweight suites under -bench;
// pass -benchtime=1x and use cmd/conspec-bench for all 22.
var benchNames = []string{"astar", "hmmer", "lbm", "libquantum", "zeusmp", "GemsFDTD"}

// benchRunner builds a fresh experiment engine per iteration so benchmark
// timings measure real simulations, not the memo cache.
func benchRunner() *exp.Runner { return exp.NewRunner(exp.RunnerOptions{}) }

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev, err := benchRunner().Evaluation(context.Background(), benchSpec(), benchNames)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*ev.Fig5.Avg.Baseline, "baseline-ovh-%")
		b.ReportMetric(100*ev.Fig5.Avg.CacheHit, "cachehit-ovh-%")
		b.ReportMetric(100*ev.Fig5.Avg.TPBuf, "tpbuf-ovh-%")
	}
}

func BenchmarkTable4(b *testing.B) {
	cfg := config.PaperCore()
	cfg.Mem.L2Size = 256 * 1024
	cfg.Mem.L3Size = 1024 * 1024
	for i := 0; i < b.N; i++ {
		outcomes, err := benchRunner().Table4(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		matches := 0
		for _, o := range outcomes {
			if o.Leaked != o.Defense.Closes(o.SharedMemory) {
				matches++
			}
		}
		b.ReportMetric(float64(matches), "cells-matching-paper")
		b.ReportMetric(float64(len(outcomes)), "cells-total")
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev, err := benchRunner().Evaluation(context.Background(), benchSpec(), benchNames)
		if err != nil {
			b.Fatal(err)
		}
		var l1, blocked float64
		for _, bench := range ev.Benches {
			l1 += bench.Results[core.Origin].L1D.HitRate()
			blocked += bench.Results[core.Baseline].Filter.BlockedRate()
		}
		n := float64(len(ev.Benches))
		b.ReportMetric(100*l1/n, "l1-hit-%")
		b.ReportMetric(100*blocked/n, "baseline-blocked-%")
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cores, err := benchRunner().Table6(context.Background(), benchSpec(), []string{"astar", "hmmer", "lbm"})
		if err != nil {
			b.Fatal(err)
		}
		for _, tc := range cores {
			b.ReportMetric(100*tc.Avg.TPBuf, tc.Core+"-tpbuf-ovh-%")
		}
	}
}

func BenchmarkMatrixScope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchRunner().Scope(context.Background(), benchSpec(), []string{"astar", "hmmer", "lbm"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.BranchOnlyAvg, "branch-only-ovh-%")
		b.ReportMetric(100*r.FullAvg, "full-matrix-ovh-%")
	}
}

func BenchmarkLRUPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchRunner().LRU(context.Background(), benchSpec(), []string{"astar", "bzip2"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.NoUpdate-r.Always), "noupdate-cost-%")
		b.ReportMetric(100*(r.NoUpdate-r.Delayed), "delayed-gain-%")
	}
}

func BenchmarkICacheFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchRunner().ICache(context.Background(), benchSpec(), []string{"astar", "gobmk"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.With-r.Without), "icache-filter-cost-%")
	}
}

func BenchmarkHardwareOverhead(b *testing.B) {
	tech := hw.SMIC40()
	var last hw.Report
	for i := 0; i < b.N; i++ {
		for _, cfg := range append([]config.Core{config.PaperCore()}, config.SensitivityCores()...) {
			last = hw.Evaluate(tech, cfg)
		}
	}
	b.ReportMetric(last.Matrix.MM2, "xeon-matrix-mm2")
}

// --- component microbenchmarks ----------------------------------------------

// BenchmarkSimulatorThroughput measures raw simulation speed in committed
// guest instructions per host operation (the figure of merit for scaling
// the instruction budgets up).
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, _ := workload.ByName("GemsFDTD")
	w := workload.MustGenerate(p)
	backing := isa.NewFlatMem()
	w.Load(backing)
	cpu := pipeline.NewWithMemory(config.PaperCore(),
		pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf}, backing)
	cpu.SetPC(w.Entry)
	b.ResetTimer()
	cpu.RunFor(uint64(b.N), ^uint64(0))
}

// BenchmarkSecMatrixDispatch drives the dispatch stage's production path
// (OnDispatchMask over a word-wide producer mask) at worst-case density:
// every other issue-queue slot holds a valid, unissued memory producer.
func BenchmarkSecMatrixDispatch(b *testing.B) {
	m := core.NewSecMatrix(64, core.ScopeBranchMem)
	producers := make([]uint64, m.Words())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := i % 64
		producers[0] = ^(uint64(1) << uint(x)) // everyone but the new occupant
		m.OnDispatchMask(x, core.ClassMem, producers)
	}
}

func BenchmarkSecMatrixHazardCheck(b *testing.B) {
	m := core.NewSecMatrix(64, core.ScopeBranchMem)
	entries := make([]core.EntryState, 64)
	for i := range entries {
		entries[i] = core.EntryState{Valid: true, Class: core.ClassMem}
	}
	m.OnDispatch(7, core.ClassMem, entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Peek(7)
	}
}

func BenchmarkTPBufQuery(b *testing.B) {
	t := core.NewTPBuf(56)
	for i := 0; i < 56; i++ {
		t.Allocate(i)
		t.SetSuspect(i, i%3 == 0)
		t.SetPPN(i, uint64(i)/4)
		if i%2 == 0 {
			t.SetWriteback(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.QuerySafe(55, uint64(i)&7)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := mem.NewCache("bench", 64*1024, 4, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) * 64 % (1 << 20)
		if !c.Access(addr, true) {
			c.Refill(addr)
		}
	}
}

func BenchmarkAssembler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bb := asm.New()
		bb.Li(asm.S0, 0)
		bb.Bind("loop")
		for j := 0; j < 20; j++ {
			bb.Addi(asm.S0, asm.S0, 1)
		}
		bb.Blt(asm.S0, asm.S1, "loop")
		bb.Halt()
		if _, err := bb.Assemble(0x1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range workload.Profiles() {
			if _, err := workload.Generate(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimSetup measures per-simulation set-up on its own: for each of
// the 22 profiles, generate the kernel, load it into a fresh backing memory
// and build the machine — everything exp.RunWorkload does before the first
// cycle. Each machine is released as exp.RunWorkload releases it, so after
// the first iteration the caches come from the pool, as they do for every
// simulation but the first of each geometry. Run with -benchmem: the bytes
// per op are the set-up's allocation.
func BenchmarkSimSetup(b *testing.B) {
	profiles := workload.Profiles()
	sec := pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf}
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			w, err := workload.Generate(p)
			if err != nil {
				b.Fatal(err)
			}
			backing := isa.NewFlatMem()
			w.Load(backing)
			cpu := pipeline.NewWithMemory(config.PaperCore(), sec, backing)
			cpu.SetPC(w.Entry)
			cpu.Release()
		}
	}
}

// warmRunner is a Runner that has run the defenses suite for every backend
// over all 22 profiles at a 2k+5k budget, which covers the Figure 5
// evaluation's runs too. It is built once per process, so the repeated
// calls the benchmark harness makes of BenchmarkMemoHit pay for it once.
var warmRunner = sync.OnceValues(func() (*exp.Runner, error) {
	r := exp.NewRunner(exp.RunnerOptions{})
	_, err := r.Defenses(context.Background(), memoHitSpec(), nil, nil, memoHitAttackCore())
	return r, err
})

func memoHitSpec() exp.RunSpec {
	s := exp.DefaultSpec()
	s.Warmup = 2_000
	s.Measure = 5_000
	return s
}

func memoHitAttackCore() config.Core {
	cfg := config.PaperCore()
	cfg.Mem.L2Size = 256 * 1024
	cfg.Mem.L3Size = 1024 * 1024
	return cfg
}

// BenchmarkMemoHit measures the engine's memo-hit path on its own: one op
// is a warm defenses job (every backend over all 22 profiles: 352 run hits
// and 8 verdict hits) and a warm Figure 5 evaluation (88 run hits) on one
// Runner. Nothing is simulated inside the timed loop.
func BenchmarkMemoHit(b *testing.B) {
	r, err := warmRunner()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	spec := memoHitSpec()
	executed := r.Stats().Executed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Defenses(ctx, spec, nil, nil, memoHitAttackCore()); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Evaluation(ctx, spec, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := r.Stats().Executed; n != executed {
		b.Fatalf("warm jobs executed %d runs", n-executed)
	}
}

// --- ablation benchmarks ------------------------------------------------------
// Design-choice studies DESIGN.md calls out: each reports its headline
// deltas as custom metrics.

// BenchmarkAblationPredictorKind compares direction predictors on the
// branchy benchmarks (astar-class sensitivity per §VI.C(1)).
func BenchmarkAblationPredictorKind(b *testing.B) {
	p, _ := workload.ByName("astar")
	w := workload.MustGenerate(p)
	for i := 0; i < b.N; i++ {
		for _, kind := range []branch.Kind{branch.KindBimodal, branch.KindGshare, branch.KindTournament} {
			cfg := config.PaperCore()
			cfg.Predictor.Kind = kind
			spec := benchSpec()
			spec.Core = cfg
			res := exp.RunWorkload(w, spec)
			b.ReportMetric(100*res.Branch.MispredictRate(), kind.String()+"-mispredict-%")
		}
	}
}

// BenchmarkAblationStoreSets measures the memory-dependence predictor's
// effect on violation-heavy code: a kernel whose store address resolves
// late while a younger load reads the same slot every iteration.
func BenchmarkAblationStoreSets(b *testing.B) {
	bb := asm.New()
	bb.Li(asm.A0, 0x30000)
	bb.Li(asm.S0, 0)
	bb.Li(asm.S1, 3000)
	bb.Bind("loop")
	bb.Li(asm.T0, 1)
	for i := 0; i < 8; i++ {
		bb.Mul(asm.T0, asm.T0, asm.T0) // delay the store's address
	}
	bb.Add(asm.T1, asm.A0, asm.T0)
	bb.Addi(asm.T1, asm.T1, -1)
	bb.St(asm.T2, asm.T1, 0)
	bb.Ld(asm.T3, asm.A0, 0) // speculates past the store, same address
	bb.Addi(asm.S0, asm.S0, 1)
	bb.Blt(asm.S0, asm.S1, "loop")
	bb.Halt()
	prog := bb.MustAssemble(0x1000)

	for i := 0; i < b.N; i++ {
		for _, on := range []bool{false, true} {
			cfg := config.PaperCore()
			cfg.StoreSets = on
			backing := isa.NewFlatMem()
			prog.Load(backing)
			cpu := pipeline.NewWithMemory(cfg,
				pipeline.SecurityConfig{Mechanism: core.Origin}, backing)
			cpu.SetPC(prog.Base)
			res := cpu.Run(10_000_000)
			name := "violations-without"
			if on {
				name = "violations-with-storesets"
			}
			b.ReportMetric(float64(res.MemViolations), name)
		}
	}
}

// BenchmarkAblationPrefetcher measures the next-line prefetcher's effect on
// a streaming workload's hit rate and runtime, with the defense active.
func BenchmarkAblationPrefetcher(b *testing.B) {
	p, _ := workload.ByName("lbm")
	w := workload.MustGenerate(p)
	for i := 0; i < b.N; i++ {
		var cycles [2]uint64
		for j, on := range []bool{false, true} {
			cfg := config.PaperCore()
			cfg.Mem.NextLinePrefetch = on
			spec := benchSpec()
			spec.Core = cfg
			spec.Sec = pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf}
			res := exp.RunWorkload(w, spec)
			cycles[j] = res.Cycles
			if on {
				b.ReportMetric(100*res.L1D.HitRate(), "l1-hit-with-prefetch-%")
			}
		}
		b.ReportMetric(100*(float64(cycles[0])/float64(cycles[1])-1), "prefetch-speedup-%")
	}
}

// BenchmarkDefenseComparison reports the three-way defense comparison.
func BenchmarkDefenseComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchRunner().Compare(context.Background(), benchSpec(), []string{"astar", "lbm", "libquantum"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Avg.TPBuf, "tpbuf-ovh-%")
		b.ReportMetric(100*r.Avg.Invisi, "invisispec-ovh-%")
		b.ReportMetric(100*r.Avg.SWFence, "swfence-ovh-%")
	}
}

// BenchmarkAblationReplacement compares cache victim policies under the
// full defense (LRU is the paper's machine; PLRU is what ships; random
// trades performance for metadata-free replacement).
func BenchmarkAblationReplacement(b *testing.B) {
	p, _ := workload.ByName("astar")
	w := workload.MustGenerate(p)
	for i := 0; i < b.N; i++ {
		for _, k := range []mem.ReplacementKind{mem.ReplLRU, mem.ReplTreePLRU, mem.ReplRandom} {
			cfg := config.PaperCore()
			cfg.Mem.Replacement = k
			spec := benchSpec()
			spec.Core = cfg
			spec.Sec = pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf}
			res := exp.RunWorkload(w, spec)
			b.ReportMetric(100*res.L1D.HitRate(), k.String()+"-l1hit-%")
		}
	}
}

// BenchmarkAblationMSHR sweeps the outstanding-miss budget on a
// memory-level-parallelism-hungry stream.
func BenchmarkAblationMSHR(b *testing.B) {
	p, _ := workload.ByName("zeusmp")
	w := workload.MustGenerate(p)
	for i := 0; i < b.N; i++ {
		base := uint64(0)
		for _, mshrs := range []int{0, 8, 2, 1} {
			cfg := config.PaperCore()
			cfg.MaxMSHRs = mshrs
			spec := benchSpec()
			spec.Core = cfg
			res := exp.RunWorkload(w, spec)
			if mshrs == 0 {
				base = res.Cycles
			} else {
				b.ReportMetric(100*(float64(res.Cycles)/float64(base)-1),
					fmt.Sprintf("mshr%d-slowdown-%%", mshrs))
			}
		}
	}
}

// BenchmarkAblationDTLBFilter reports the translation-channel filter's cost.
func BenchmarkAblationDTLBFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchRunner().DTLB(context.Background(), benchSpec(), []string{"astar", "milc", "zeusmp"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.With-r.Without), "dtlb-filter-cost-%")
	}
}

// BenchmarkAblationTPBufVariant sweeps the S-Pattern matching rule on lbm
// (the benchmark TPBuf rescues): the paper's page-granular W-gated rule,
// the stricter no-W rule, and the degenerate line-granular rule.
func BenchmarkAblationTPBufVariant(b *testing.B) {
	p, _ := workload.ByName("lbm")
	w := workload.MustGenerate(p)
	for i := 0; i < b.N; i++ {
		for _, v := range []core.TPBufVariant{core.VariantPaper, core.VariantNoW, core.VariantLine} {
			spec := benchSpec()
			spec.Sec = pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf, TPBufVariant: v}
			res := exp.RunWorkload(w, spec)
			b.ReportMetric(100*res.TPBuf.MismatchRate(), v.String()+"-mismatch-%")
		}
	}
}

// BenchmarkAblationFusedStores quantifies the gem5-style store-issue model's
// effect on the Baseline mechanism (the DESIGN.md §7 fidelity discussion).
func BenchmarkAblationFusedStores(b *testing.B) {
	p, _ := workload.ByName("lbm")
	w := workload.MustGenerate(p)
	for i := 0; i < b.N; i++ {
		for _, fused := range []bool{false, true} {
			cfg := config.PaperCore()
			cfg.FusedStores = fused
			spec := benchSpec()
			spec.Core = cfg
			spec.Sec = pipeline.SecurityConfig{Mechanism: core.Baseline}
			res := exp.RunWorkload(w, spec)
			name := "split-stores-cycles"
			if fused {
				name = "fused-stores-cycles"
			}
			b.ReportMetric(float64(res.Cycles), name)
		}
	}
}
