package pipeline

import (
	"io"

	"conspec/internal/isa"
	"conspec/internal/obs"
)

// AttachSink registers an event sink: every pipeline event (the stage
// moments, squashes, suspect windows, secmatrix and TPBuf activity, skipped
// spans) is delivered to it as an obs.FlightEvent. Multiple sinks may be
// attached (e.g. a text tracer plus an O3PipeView writer and the flight
// recorder); they see the same events in the same order.
func (c *CPU) AttachSink(s obs.EventSink) {
	if s != nil {
		c.sinks = append(c.sinks, s)
	}
}

// FlushSinks flushes every attached sink (call once after the run); the
// first error wins.
func (c *CPU) FlushSinks() error {
	var first error
	for _, s := range c.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AttachTracer streams a line per stage event and squash to w — the
// classic debug tracer, a TextSink over the event stream. Intended for
// debugging guest programs and for teaching: `conspec-asm -trace` and
// `conspec-sim -trace` use it.
func (c *CPU) AttachTracer(w io.Writer) {
	c.AttachSink(obs.NewTextSink(w, c.Disasm))
}

// Disasm disassembles the instruction at pc in the CPU's backing memory as
// it is now. Sinks call it at render time (see obs.Disasm); for an event
// rendered in the cycle it was emitted that is the memory the frontend
// decoded from.
func (c *CPU) Disasm(pc uint64) string {
	return isa.Decode(c.hier.Backing.Read(pc, isa.InstBytes)).String()
}

// emit delivers one event to every attached sink. It inlines to a single
// slice-length test, so with nothing attached an event site costs one
// predicted branch; with sinks attached it allocates nothing.
func (c *CPU) emit(kind obs.FlightKind, seq, pc, aux uint64, suspect bool) {
	if len(c.sinks) != 0 {
		c.deliver(obs.FlightEvent{Cycle: c.cycle, Kind: kind, Seq: seq, PC: pc, Aux: aux, Suspect: suspect})
	}
}

// deliver is kept out of line so emit stays small enough to inline.
//
//go:noinline
func (c *CPU) deliver(ev obs.FlightEvent) {
	for _, s := range c.sinks {
		s.Event(ev)
	}
}
