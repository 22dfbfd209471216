package pipeline

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/obs"
)

// poisonedDeadlockCPU stages the PR 4 deadlock reproducer (see
// watchdog_test.go): a Baseline machine whose victim load's security
// dependence row points at a free IQ slot, so the column never clears and
// the watchdog must trip. prep runs before any cycle executes — the place
// to arm the flight recorder so the ring sees the whole run.
func poisonedDeadlockCPU(t *testing.T, prep func(*CPU)) *CPU {
	t.Helper()
	prog := deadlockProgram()
	backing := isa.NewFlatMem()
	prog.Load(backing)
	cpu := NewWithMemory(smallCore(), SecurityConfig{Mechanism: core.Baseline}, backing)
	if prep != nil {
		prep(cpu)
	}
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
	return cpu
}

// checkFlightDump asserts the properties every failure dump must have: it
// is bounded by its window, lost nothing (so it provably contains every
// event of the final K cycles), and survives a JSON round trip unchanged.
func checkFlightDump(t *testing.T, d *obs.FlightDump, window uint64) map[obs.FlightKind]int {
	t.Helper()
	if d == nil {
		t.Fatal("failure Result carries no flight dump")
	}
	if d.Window != window {
		t.Fatalf("dump window %d, want %d", d.Window, window)
	}
	if d.Dropped != 0 {
		t.Fatalf("ring dropped %d events; the dump does not cover the window", d.Dropped)
	}
	if len(d.Events) == 0 {
		t.Fatal("dump contains no events")
	}
	var horizon uint64
	if d.Cycle > window {
		horizon = d.Cycle - window + 1
	}
	if d.FirstCycle < horizon || d.LastCycle > d.Cycle {
		t.Fatalf("events [%d,%d] outside dump window [%d,%d]",
			d.FirstCycle, d.LastCycle, horizon, d.Cycle)
	}
	prev := uint64(0)
	kinds := map[obs.FlightKind]int{}
	for _, ev := range d.Events {
		if ev.Cycle < prev {
			t.Fatalf("events out of order: %d after %d", ev.Cycle, prev)
		}
		prev = ev.Cycle
		kinds[ev.Kind]++
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back obs.FlightDump
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*d, back) {
		t.Fatal("dump does not round-trip through JSON")
	}
	return kinds
}

// TestFlightRecorderDeadlockDump is the trace-smoke gate: the deadlock
// reproducer with the recorder armed must produce a watchdog dump that
// parses and covers the final K cycles — with the stall skipper both
// engaged (spans appear as skip-span events) and disabled.
func TestFlightRecorderDeadlockDump(t *testing.T) {
	const window, capacity = 1 << 15, 1 << 16
	for _, tc := range []struct {
		name string
		skip bool
	}{{"skip-on", true}, {"skip-off", false}} {
		t.Run(tc.name, func(t *testing.T) {
			cpu := poisonedDeadlockCPU(t, func(c *CPU) {
				c.ArmFlightRecorder(window, capacity)
				c.SetStallSkip(tc.skip)
			})
			res := cpu.Run(10_000_000)
			if res.Outcome != OutcomeDeadlock {
				t.Fatalf("outcome %v, want deadlock", res.Outcome)
			}
			var npe *NoProgressError
			if !errors.As(cpu.Err(), &npe) {
				t.Fatalf("Err() = %v, want *NoProgressError", cpu.Err())
			}
			kinds := checkFlightDump(t, res.Flight, window)
			if res.Flight.Cycle != npe.Cycle {
				t.Fatalf("dump cycle %d != trip cycle %d", res.Flight.Cycle, npe.Cycle)
			}
			// The lead-up must show the machinery that wedged: dispatched
			// instructions with security rows, and the issues that drained.
			for _, k := range []obs.FlightKind{obs.FlightFetch, obs.FlightDispatch, obs.FlightSecRowSet, obs.FlightIssue} {
				if kinds[k] == 0 {
					t.Errorf("dump has no %v events", k)
				}
			}
			if tc.skip {
				// The silent tail is explained by a skip span ending just
				// before the trip.
				if kinds[obs.FlightSkipSpan] == 0 {
					t.Fatal("skipper engaged but no skip-span event recorded")
				}
				last := res.Flight.Events[len(res.Flight.Events)-1]
				if last.Kind != obs.FlightSkipSpan || res.Flight.Cycle-last.Cycle > 2 {
					t.Errorf("last event %+v does not abut the trip at %d", last, res.Flight.Cycle)
				}
			}
			if !strings.Contains(res.Flight.PipeView, "O3PipeView:fetch:") {
				t.Errorf("dump pipeview tail missing fetch records:\n%s", res.Flight.PipeView)
			}
			// The dump rides the same Result the Diag string does.
			if res.Diag != npe.Dump {
				t.Error("Result.Diag must still carry the watchdog dump")
			}
		})
	}
}

// TestFlightRecorderAuditDump covers the second automatic dump path: a
// self-check sweep finding a poisoned security matrix fails the run with
// OutcomeAuditFailed and the same flight dump attached.
func TestFlightRecorderAuditDump(t *testing.T) {
	const window, capacity = 1 << 15, 1 << 16
	cpu := poisonedDeadlockCPU(t, func(c *CPU) {
		c.ArmFlightRecorder(window, capacity)
	})
	cpu.SetSelfCheck(1)
	res := cpu.Run(1_000_000)
	if res.Outcome != OutcomeAuditFailed {
		t.Fatalf("outcome %v, want audit-failed (err %v)", res.Outcome, cpu.Err())
	}
	kinds := checkFlightDump(t, res.Flight, window)
	if kinds[obs.FlightSecRowSet] == 0 {
		t.Error("audit dump has no secrow-set events")
	}
	if res.Flight.Cycle != cpu.Cycle() {
		t.Fatalf("dump cycle %d != audit cycle %d", res.Flight.Cycle, cpu.Cycle())
	}
}

// TestFlightRecorderHealthyRunNoDump: healthy outcomes carry no dump even
// with the recorder armed, and DumpFlight still serves the conviction path.
func TestFlightRecorderHealthyRunNoDump(t *testing.T) {
	prog := deadlockProgram() // healthy when nobody poisons the matrix
	backing := isa.NewFlatMem()
	prog.Load(backing)
	cpu := NewWithMemory(smallCore(), SecurityConfig{Mechanism: core.Baseline}, backing)
	cpu.ArmFlightRecorder(0, 0)
	cpu.SetPC(prog.Base)
	res := cpu.Run(1_000_000)
	if res.Outcome != OutcomeHalted {
		t.Fatalf("outcome %v, want halted", res.Outcome)
	}
	if res.Flight != nil {
		t.Fatal("healthy run must not carry a flight dump")
	}
	d := cpu.DumpFlight()
	if d == nil || len(d.Events) == 0 {
		t.Fatal("explicit DumpFlight returned nothing")
	}
	if kinds := checkFlightDump(t, d, obs.DefaultFlightWindow); kinds[obs.FlightCommit] == 0 {
		t.Error("explicit dump has no commit events")
	}
}

// TestArmFlightRecorderTwiceReplacesRing: re-arming swaps the ring on the
// sink slice in place, so the CPU dumps the new ring and the old one stops
// receiving events.
func TestArmFlightRecorderTwiceReplacesRing(t *testing.T) {
	prog := deadlockProgram()
	backing := isa.NewFlatMem()
	prog.Load(backing)
	cpu := NewWithMemory(smallCore(), SecurityConfig{Mechanism: core.Baseline}, backing)
	first := cpu.ArmFlightRecorder(0, 0)
	second := cpu.ArmFlightRecorder(64, 0)
	if len(cpu.sinks) != 1 {
		t.Fatalf("%d sinks after re-arming, want 1", len(cpu.sinks))
	}
	cpu.SetPC(prog.Base)
	cpu.Run(1_000_000)
	if first.Dump(cpu.Cycle()) != nil {
		t.Fatal("replaced ring still received events")
	}
	if d := cpu.DumpFlight(); d == nil || d.Window != second.Window() {
		t.Fatalf("DumpFlight = %+v, want a dump of the re-armed ring", d)
	}
}
