package pipeline

import (
	"slices"

	"conspec/internal/obs"
)

// Flight-recorder attachment. The recorder is an event sink and an
// observer, not machine state: arming it changes no simulated behavior, so
// it deliberately does NOT participate in the stall skipper's activity
// signature (skip.go). A cycle the skipper proves inert fires no pipeline
// events by definition, and skipped spans are emitted explicitly by
// fastForward, so the ring's contents are equivalent whether or not spans
// were skipped — modulo the skip-span events themselves, which, like the
// SkippedCycles meta-counters, describe the simulator rather than the
// machine.

// ArmFlightRecorder attaches a flight recorder covering the last window
// cycles with an event ring of the given capacity (zero values select the
// obs defaults). Recording costs zero allocations per cycle; the ring is
// the only allocation and happens here. Re-arming replaces the ring. The
// CPU keeps a pointer to the recorder so the failure paths can dump it.
func (c *CPU) ArmFlightRecorder(window uint64, capacity int) *obs.FlightRecorder {
	fr := obs.NewFlightRecorder(window, capacity)
	if i := slices.Index(c.sinks, obs.EventSink(c.fr)); i >= 0 {
		c.sinks[i] = fr
	} else {
		c.AttachSink(fr)
	}
	c.fr = fr
	return fr
}

// DumpFlight renders the armed recorder's ring as of the current cycle —
// the explicit hook for convictions the machine cannot see itself, like an
// attack harness's leak check over a fault-injected run. Watchdog trips and
// audit failures dump automatically into Result.Flight. Returns nil when no
// recorder is armed or nothing was recorded.
func (c *CPU) DumpFlight() *obs.FlightDump { return c.fr.Dump(c.cycle) }
