package obs

import (
	"fmt"
	"io"
)

// EventSink consumes the pipeline's event stream: one FlightEvent per
// microarchitectural moment, the same stream the flight recorder keeps.
// A sink handles the kinds it renders and ignores the rest. Flush is called
// once after the run to drain any buffered state and report the first
// write error.
type EventSink interface {
	Event(ev FlightEvent)
	Flush() error
}

// Disasm resolves an instruction address to its disassembly by reading the
// simulated memory when the sink renders the event. Events carry no
// strings, so the renderers take this lookup instead (obs does not depend
// on the ISA package).
type Disasm func(pc uint64) string

// textStage holds the text tracer's stage labels for the per-instruction
// kinds it renders.
var textStage = [...]string{
	FlightFetch:     "FETCH",
	FlightDispatch:  "DISPATCH",
	FlightIssue:     "ISSUE",
	FlightWriteback: "WB",
	FlightCommit:    "COMMIT",
}

// TextSink renders the five stage events and squashes in the human-readable
// one-line-per-event format the debug tracer has always used; every other
// kind is ignored. It writes through, stops at the first write error and
// reports it from Flush.
type TextSink struct {
	w      io.Writer
	disasm Disasm
	err    error
}

// NewTextSink builds a text sink over w that labels instructions through
// disasm.
func NewTextSink(w io.Writer, disasm Disasm) *TextSink {
	return &TextSink{w: w, disasm: disasm}
}

// Event writes one line for a stage or squash event.
func (t *TextSink) Event(ev FlightEvent) {
	if t.err != nil {
		return
	}
	switch ev.Kind {
	case FlightFetch, FlightDispatch, FlightIssue, FlightWriteback, FlightCommit:
		_, t.err = fmt.Fprintf(t.w, "%8d %-8s seq=%-6d pc=%#x  %s\n",
			ev.Cycle, textStage[ev.Kind], ev.Seq, ev.PC, t.disasm(ev.PC))
	case FlightSquash:
		_, t.err = fmt.Fprintf(t.w, "%8d SQUASH   from seq=%d, redirect pc=%#x\n",
			ev.Cycle, ev.Seq, ev.Aux)
	}
}

// Flush returns the first write error; the text sink holds no buffer.
func (t *TextSink) Flush() error { return t.err }
