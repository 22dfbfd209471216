package pipeline

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/obs"
	"conspec/internal/workload"
)

// runDeadlock stages the watchdog deadlock reproducer (see watchdog_test.go)
// with the stall skipper on or off and returns the wedged machine and its
// result. The poisoning phase uses StepCycle, which never skips, so both
// configurations enter Run from an identical machine state.
func runDeadlock(t *testing.T, skip bool) (*CPU, Result) {
	t.Helper()
	prog := deadlockProgram()
	backing := isa.NewFlatMem()
	prog.Load(backing)
	cpu := NewWithMemory(smallCore(), SecurityConfig{Mechanism: core.Baseline}, backing)
	cpu.SetStallSkip(skip)
	cpu.SetPC(prog.Base)

	victim := -1
	for i := 0; i < 5000 && victim < 0; i++ {
		cpu.StepCycle()
		for x, u := range cpu.iq {
			if u != nil && u.inst.Op.IsLoad() && !u.issued && u.waitCnt > 0 {
				victim = x
			}
		}
	}
	if victim < 0 {
		t.Fatal("victim load never appeared in the issue queue")
	}
	free := -1
	for y, u := range cpu.iq {
		if u == nil && y != victim {
			free = y
			break
		}
	}
	if free < 0 {
		t.Fatal("no free IQ slot to point the poisoned dependence at")
	}
	for i := 0; i < 4; i++ {
		if cpu.secmat.Get(victim, free) {
			break
		}
		cpu.secmat.Flip(victim, free)
		cpu.StepCycle()
	}
	if !cpu.secmat.Get(victim, free) {
		t.Fatal("poisoned dependence bit did not stick")
	}
	return cpu, cpu.Run(10_000_000)
}

// TestWatchdogTripsIdenticallyUnderSkip: fast-forwarded spans must count
// toward the watchdog's no-progress window, so a wedged machine trips at
// exactly the same wall-cycle whether the skipper stepped or jumped there.
func TestWatchdogTripsIdenticallyUnderSkip(t *testing.T) {
	fast, fres := runDeadlock(t, true)
	slow, sres := runDeadlock(t, false)

	if fres.Outcome != OutcomeDeadlock || sres.Outcome != OutcomeDeadlock {
		t.Fatalf("outcomes %v / %v, want deadlock in both", fres.Outcome, sres.Outcome)
	}
	if fres.Stages.SkipSpans == 0 {
		t.Fatal("skipper never engaged on the deadlock run; the test proves nothing")
	}
	if sres.Stages.SkipSpans != 0 || sres.Stages.SkippedCycles != 0 {
		t.Fatalf("skip-disabled run recorded skips: %d spans, %d cycles",
			sres.Stages.SkipSpans, sres.Stages.SkippedCycles)
	}
	if fres.Cycles != sres.Cycles {
		t.Fatalf("trip cycle diverged: %d with skip, %d without", fres.Cycles, sres.Cycles)
	}

	var fnpe, snpe *NoProgressError
	if !errors.As(fast.Err(), &fnpe) || !errors.As(slow.Err(), &snpe) {
		t.Fatalf("errors %v / %v, want *NoProgressError in both", fast.Err(), slow.Err())
	}
	if fnpe.Cycle != snpe.Cycle || fnpe.LastCommit != snpe.LastCommit || fnpe.Window != snpe.Window {
		t.Fatalf("trip bookkeeping diverged:\n  skip   %+v\n  noskip %+v", fnpe, snpe)
	}
	if fres.Hardening.WatchdogTrips != 1 || sres.Hardening.WatchdogTrips != 1 {
		t.Fatalf("WatchdogTrips %d / %d, want 1 in both",
			fres.Hardening.WatchdogTrips, sres.Hardening.WatchdogTrips)
	}
}

// skipRun runs one workload on a fresh machine with every observer attached
// (text tracer, O3PipeView writer, sampled metrics) and returns the result
// plus the raw observer outputs.
func skipRun(t *testing.T, w *workload.Workload, sec SecurityConfig, skip bool) (Result, []byte, []byte, *obs.Series) {
	t.Helper()
	backing := isa.NewFlatMem()
	w.Load(backing)
	cpu := NewWithMemory(smallCore(), sec, backing)
	cpu.SetStallSkip(skip)

	var trace, pview bytes.Buffer
	cpu.AttachTracer(&trace)
	cpu.AttachSink(obs.NewPipeViewSink(&pview, cpu.Disasm))
	m := NewMetrics()
	m.EnableSampling(512, 4096)
	cpu.AttachMetrics(m)

	cpu.SetPC(w.Entry)
	res := cpu.RunFor(30_000, 3_000_000)
	if !res.Outcome.Completed() {
		t.Fatalf("outcome %v (diag %s)", res.Outcome, res.Diag)
	}
	if err := cpu.FlushSinks(); err != nil {
		t.Fatalf("flush sinks: %v", err)
	}
	return res, trace.Bytes(), pview.Bytes(), m.Series()
}

// TestSkipDifferentialAllDefenses: for every registered defense backend, a
// run with event-driven stall skipping must be byte-identical to the stepped
// run — same Result (modulo the two skip meta-counters), same trace stream,
// same O3PipeView output, same sampled metric series.
func TestSkipDifferentialAllDefenses(t *testing.T) {
	prof, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	w := workload.MustGenerate(prof)

	engaged := false
	for _, d := range core.Defenses() {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			sec := SecurityConfig{Mechanism: d.Mechanism(), SSBD: d.SSBD()}
			fres, ftrace, fpview, fseries := skipRun(t, w, sec, true)
			sres, strace, spview, sseries := skipRun(t, w, sec, false)

			if sres.Stages.SkipSpans != 0 || sres.Stages.SkippedCycles != 0 {
				t.Fatalf("skip-disabled run recorded skips: %+v", sres.Stages)
			}
			if fres.Stages.SkipSpans > 0 {
				engaged = true
			}

			// Mask the simulator meta-counters; everything else must match.
			masked := fres
			masked.Stages.SkippedCycles = 0
			masked.Stages.SkipSpans = 0
			if !reflect.DeepEqual(masked, sres) {
				t.Errorf("Result diverged under skip:\n  skip   %+v\n  noskip %+v", masked, sres)
			}
			if !bytes.Equal(ftrace, strace) {
				t.Errorf("trace diverged: %d bytes with skip, %d without", len(ftrace), len(strace))
			}
			if !bytes.Equal(fpview, spview) {
				t.Errorf("pipeview diverged: %d bytes with skip, %d without", len(fpview), len(spview))
			}
			if !reflect.DeepEqual(fseries, sseries) {
				t.Errorf("metric series diverged: %d rows with skip, %d without",
					len(fseries.Rows), len(sseries.Rows))
			}
		})
	}
	if !engaged {
		t.Error("skipper never engaged on any backend; the differential proves nothing")
	}
}
