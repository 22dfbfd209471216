// Package exp contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation: Figure 5 (normalized performance),
// Table IV (security), Table V (filter analysis), Table VI (core
// sensitivity), the §VI.C(1) matrix-scope decomposition, the §VI.E hardware
// overhead model, the §VII.A LRU policies and the §VII.B ICache filter.
package exp

import (
	"context"

	"conspec/internal/config"
	"conspec/internal/isa"
	"conspec/internal/mem"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// RunSpec parameterizes one measurement run, mirroring the paper's
// methodology of a warmup phase followed by cycle-accurate measurement.
type RunSpec struct {
	Core      config.Core
	Sec       pipeline.SecurityConfig
	L1DUpdate mem.UpdatePolicy
	// Warmup and Measure are committed-instruction budgets.
	Warmup  uint64
	Measure uint64
	// MaxCycles bounds each phase defensively (0 = a generous default).
	MaxCycles uint64
	// MetricsInterval, when non-zero, attaches an obs metric registry for
	// the measured phase and samples it every MetricsInterval cycles; the
	// returned Result carries the time series. Zero (the default) attaches
	// nothing: the simulation is byte-identical with and without the obs
	// subsystem compiled in.
	MetricsInterval uint64
	// SelfCheck, when non-zero, audits the machine's pipeline and security
	// invariants every SelfCheck cycles (both phases); a violation ends the
	// run with OutcomeAuditFailed. Zero (the default) disables sweeps.
	SelfCheck uint64
	// FlightWindow, when non-zero, arms the pipeline flight recorder with a
	// dump window of that many cycles (default ring capacity): a run that
	// trips the watchdog or fails an audit comes back with Result.Flight
	// holding its last FlightWindow cycles of microarchitectural events.
	// Recording is observation only — results are identical with and without
	// it — so the field deliberately does not participate in run keys
	// (keyOf): armed and unarmed submissions share cache entries.
	FlightWindow uint64
}

// DefaultSpec returns the budget used by the standard experiment suites.
// The paper warms for 1B instructions and measures 1B on gem5; the same
// shape at laptop scale is tens of thousands of warmup instructions and a
// few hundred thousand measured.
func DefaultSpec() RunSpec {
	return RunSpec{
		Core:    config.PaperCore(),
		Warmup:  20_000,
		Measure: 120_000,
	}
}

// RunWorkload builds a fresh machine, loads w, warms up, resets statistics
// and measures. The returned Result covers only the measured phase.
func RunWorkload(w *workload.Workload, spec RunSpec) pipeline.Result {
	return RunWorkloadWith(w, spec, nil)
}

// RunWorkloadWith is RunWorkload with an observability hook: setup, when
// non-nil, runs on the freshly built machine before warmup — the place to
// attach event sinks (tracers, O3PipeView writers), which then see the whole
// run. When spec.MetricsInterval is non-zero a metric registry is attached
// after warmup, so its histograms and time series cover exactly the measured
// phase, and the returned Result carries the series.
func RunWorkloadWith(w *workload.Workload, spec RunSpec, setup func(*pipeline.CPU)) pipeline.Result {
	res, _ := RunWorkloadCtx(context.Background(), w, spec, setup)
	return res
}

// runPhaseChunk bounds how many cycles runPhase simulates between
// cancellation checks. It is deliberately larger than the default watchdog
// window, so a deadlocked machine trips the watchdog inside one chunk
// rather than having its no-progress window reset at a chunk boundary.
const runPhaseChunk = 1 << 16

// runPhase drives one committed-instruction phase in bounded chunks so the
// caller can honor ctx between chunks without putting a check on the cycle
// loop. The committed-instruction target and the total cycle budget are
// fixed up front, so the machine evolves — and the returned Result reads —
// exactly as a single RunFor(insts, maxCycles) call.
func runPhase(ctx context.Context, cpu *pipeline.CPU, insts, maxCycles uint64) (pipeline.Result, error) {
	start := cpu.Cycle()
	done := cpu.Result().Committed
	target := done + insts
	if target < done { // overflow: no instruction limit
		target = ^uint64(0)
	}
	for {
		if err := ctx.Err(); err != nil {
			return cpu.Result(), err
		}
		budget := maxCycles - (cpu.Cycle() - start)
		if budget > runPhaseChunk {
			budget = runPhaseChunk
		}
		res := cpu.RunFor(target-cpu.Result().Committed, budget)
		if res.Outcome != pipeline.OutcomeCycleCapExceeded {
			return res, nil // halted, budget reached, or the machine failed
		}
		if cpu.Cycle()-start >= maxCycles {
			return res, nil // the real cycle cap, not a chunk boundary
		}
	}
}

// RunWorkloadCtx is RunWorkloadWith with cancellation: the simulation checks
// ctx between bounded chunks of cycles, so a Runner timeout or a SIGINT
// stops a wedged run mid-flight. The returned error is non-nil only for
// cancellation; simulation failures (deadlock, audit violation, cycle cap)
// are reported through Result.Outcome. A warmup phase that fails returns
// that phase's Result immediately — its Outcome and Diag describe the
// failure — instead of measuring a broken machine.
func RunWorkloadCtx(ctx context.Context, w *workload.Workload, spec RunSpec, setup func(*pipeline.CPU)) (pipeline.Result, error) {
	return RunWorkloadObs(ctx, w, spec, setup, nil)
}

// RunWorkloadObs is RunWorkloadCtx with a phase hook: onPhase, when non-nil,
// is called at the start of each committed-instruction phase ("warmup", then
// "measure") and must return a closure invoked when the phase ends — the
// shape a span tracer wants. The hook observes phase boundaries only; the
// simulation is byte-identical with and without it.
//
// The machine is released (pipeline.CPU.Release) when the function returns
// normally, so its cache tag arrays serve the next simulation of the same
// geometry; a setup hook may keep the CPU to flush its sinks or dump its
// flight recorder, but not to touch its memory system. A panicking run is
// never released.
func RunWorkloadObs(ctx context.Context, w *workload.Workload, spec RunSpec, setup func(*pipeline.CPU), onPhase func(name string) func()) (pipeline.Result, error) {
	maxCycles := spec.MaxCycles
	if maxCycles == 0 {
		maxCycles = 400 * (spec.Warmup + spec.Measure)
	}
	cfg := spec.Core
	cfg.Mem.L1DUpdate = spec.L1DUpdate

	backing := isa.NewFlatMem()
	w.Load(backing)
	cpu := pipeline.NewWithMemory(cfg, spec.Sec, backing)
	if setup != nil {
		setup(cpu)
	}
	if spec.FlightWindow > 0 {
		cpu.ArmFlightRecorder(spec.FlightWindow, 0)
	}
	cpu.SetSelfCheck(spec.SelfCheck)
	cpu.SetPC(w.Entry)
	wres, err := runObsPhase(ctx, cpu, spec.Warmup, maxCycles, "warmup", onPhase)
	if err != nil || !wres.Outcome.Completed() {
		cpu.Release()
		return wres, err
	}
	cpu.ResetStats()
	var m *pipeline.Metrics
	if spec.MetricsInterval > 0 {
		m = pipeline.NewMetrics()
		m.EnableSampling(spec.MetricsInterval, 4096)
		cpu.AttachMetrics(m)
	}
	res, err := runObsPhase(ctx, cpu, spec.Measure, maxCycles, "measure", onPhase)
	if m != nil {
		res.Series = m.Series()
	}
	cpu.Release()
	return res, err
}

// runObsPhase wraps runPhase in the onPhase begin/end pair.
func runObsPhase(ctx context.Context, cpu *pipeline.CPU, insts, maxCycles uint64, name string, onPhase func(string) func()) (pipeline.Result, error) {
	if onPhase != nil {
		if end := onPhase(name); end != nil {
			defer end()
		}
	}
	return runPhase(ctx, cpu, insts, maxCycles)
}

// Overhead returns the runtime overhead of res relative to origin runs of
// the same instruction budget: cyclesRes/cyclesOrigin - 1.
func Overhead(origin, res pipeline.Result) float64 {
	if origin.Cycles == 0 {
		return 0
	}
	return float64(res.Cycles)/float64(origin.Cycles) - 1
}
