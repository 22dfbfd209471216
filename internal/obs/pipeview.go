package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// PipeViewSink renders the event stream in gem5's O3PipeView trace format,
// which the Konata pipeline visualizer opens directly. Each retired (or
// squashed) instruction becomes one seven-line record:
//
//	O3PipeView:fetch:<tick>:0x<pc>:0:<seq>:<disasm>
//	O3PipeView:decode:<tick>
//	O3PipeView:rename:<tick>
//	O3PipeView:dispatch:<tick>
//	O3PipeView:issue:<tick>
//	O3PipeView:complete:<tick>
//	O3PipeView:retire:<tick>:store:0
//
// Ticks are simulator cycle numbers (cycles start at 1, so 0 is the "stage
// never reached" sentinel Konata expects for squashed instructions; a
// retire tick of 0 marks the instruction as flushed). This simulator has no
// separate decode/rename stages — both carry the dispatch cycle, preserving
// the frontend-depth gap Konata draws between fetch and dispatch. Suspect
// and filter-blocked instructions get a " [suspect]" / " [blocked]" marker
// appended to the disassembly, visible in Konata's label pane.
//
// Records accumulate from events and are written at retire/squash time, so
// attaching the sink mid-run is safe: events for instructions fetched
// before attachment are ignored. The label is resolved through disasm when
// the fetch event arrives: the same cycle and memory the frontend decoded
// the instruction from. An instruction is marked blocked when a
// suspect-open event (a hazard filter blocked it) precedes its issue or
// commit event.
type PipeViewSink struct {
	w      *bufio.Writer
	disasm Disasm
	recs   map[uint64]*pvRecord
}

// pvRecord accumulates one instruction's O3PipeView record.
type pvRecord struct {
	pc, fetch, dispatch, issue, complete, retire uint64
	label                                        string
	suspect, blocked                             bool
	// opened latches a suspect-open event; PipeViewSink folds it into
	// blocked at issue and at commit.
	opened bool
}

// write renders r as the seven-line O3PipeView record of instruction seq.
// Both PipeViewSink and the flight dump's pipeview tail go through it.
func (r *pvRecord) write(w io.Writer, seq uint64) {
	label := r.label
	if r.suspect {
		label += " [suspect]"
	}
	if r.blocked {
		label += " [blocked]"
	}
	fmt.Fprintf(w, "O3PipeView:fetch:%d:0x%016x:0:%d:%s\n", r.fetch, r.pc, seq, label)
	fmt.Fprintf(w, "O3PipeView:decode:%d\n", r.dispatch)
	fmt.Fprintf(w, "O3PipeView:rename:%d\n", r.dispatch)
	fmt.Fprintf(w, "O3PipeView:dispatch:%d\n", r.dispatch)
	fmt.Fprintf(w, "O3PipeView:issue:%d\n", r.issue)
	fmt.Fprintf(w, "O3PipeView:complete:%d\n", r.complete)
	fmt.Fprintf(w, "O3PipeView:retire:%d:store:0\n", r.retire)
}

// seqsFrom returns the sequence numbers >= from among recs, ascending, so
// output order is deterministic.
func seqsFrom(recs map[uint64]*pvRecord, from uint64) []uint64 {
	var seqs []uint64
	for seq := range recs {
		if seq >= from {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// NewPipeViewSink builds an O3PipeView sink writing to w that labels
// instructions through disasm.
func NewPipeViewSink(w io.Writer, disasm Disasm) *PipeViewSink {
	return &PipeViewSink{
		w:      bufio.NewWriter(w),
		disasm: disasm,
		recs:   make(map[uint64]*pvRecord),
	}
}

// Event accumulates stage timestamps and emits the record when the
// instruction leaves the machine.
func (p *PipeViewSink) Event(ev FlightEvent) {
	switch ev.Kind {
	case FlightFetch:
		p.recs[ev.Seq] = &pvRecord{pc: ev.PC, label: p.disasm(ev.PC), fetch: ev.Cycle}
		return
	case FlightSquash:
		// Range squash: every pending record at or above the squash point
		// retires with tick 0, which Konata draws as a flushed instruction.
		p.flushFrom(ev.Seq)
		return
	}
	r := p.recs[ev.Seq]
	if r == nil {
		return
	}
	switch ev.Kind {
	case FlightDispatch:
		r.dispatch = ev.Cycle
	case FlightSuspectOpen:
		r.opened = true
	case FlightIssue:
		r.issue = ev.Cycle
		r.suspect = r.suspect || ev.Suspect
		r.blocked = r.blocked || r.opened
	case FlightWriteback:
		r.complete = ev.Cycle
	case FlightCommit:
		r.blocked = r.blocked || r.opened
		r.retire = ev.Cycle
		r.write(p.w, ev.Seq)
		delete(p.recs, ev.Seq)
	}
}

// flushFrom emits every pending record with seq >= from as squashed.
func (p *PipeViewSink) flushFrom(from uint64) {
	for _, seq := range seqsFrom(p.recs, from) {
		p.recs[seq].write(p.w, seq)
		delete(p.recs, seq)
	}
}

// Flush emits every still-pending record as squashed (the run ended with
// them in flight) and drains the write buffer.
func (p *PipeViewSink) Flush() error {
	p.flushFrom(0)
	return p.w.Flush()
}
