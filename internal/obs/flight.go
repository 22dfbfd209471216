package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The flight recorder is the black box of the simulator: a fixed-size ring
// of the most recent microarchitectural events, recorded unconditionally
// while armed at zero allocations per cycle, and rendered into a structured
// dump only on a failure path (watchdog trip, audit violation, fault
// conviction). FlightEvent is the pipeline's only event type: the recorder
// is one EventSink among others (the text tracer and PipeViewSink consume
// the same stream). An event is six machine words with no pointers, so
// delivering it allocates nothing and recording it is a ring store.

// FlightKind classifies one flight-recorder event.
type FlightKind uint8

const (
	// Per-instruction pipeline stages (Seq/PC identify the instruction).
	FlightFetch FlightKind = iota
	FlightDispatch
	FlightIssue
	FlightWriteback
	FlightCommit
	// FlightSquash: every in-flight instruction with sequence >= Seq was
	// squashed; Aux carries the redirect PC.
	FlightSquash
	// FlightSuspectOpen: the instruction at Seq was marked suspect and
	// blocked from unsafe execution (a suspect window opened).
	FlightSuspectOpen
	// FlightSuspectClose: the instruction's suspect window closed (its
	// speculation hazards resolved); Aux is the window length in cycles.
	FlightSuspectClose
	// FlightSecRowSet: the secmatrix row in Aux recorded new dependencies
	// for the instruction at Seq.
	FlightSecRowSet
	// FlightSecRowClear: the secmatrix row/column in Aux was cleared when
	// the instruction at Seq issued.
	FlightSecRowClear
	// FlightTPBufAlloc: LSQ entry Aux allocated a trace line in the TPBuf.
	FlightTPBufAlloc
	// FlightTPBufHit: a TPBuf safety query for the load at Seq matched an
	// S-Pattern (the refill was judged unsafe); Aux is the LSQ entry.
	FlightTPBufHit
	// FlightSkipSpan: the stall skipper fast-forwarded Aux cycles ending at
	// Cycle; no events can occur inside the span by construction.
	FlightSkipSpan

	flightKindCount
)

var flightKindNames = [flightKindCount]string{
	FlightFetch:        "fetch",
	FlightDispatch:     "dispatch",
	FlightIssue:        "issue",
	FlightWriteback:    "writeback",
	FlightCommit:       "commit",
	FlightSquash:       "squash",
	FlightSuspectOpen:  "suspect-open",
	FlightSuspectClose: "suspect-close",
	FlightSecRowSet:    "secrow-set",
	FlightSecRowClear:  "secrow-clear",
	FlightTPBufAlloc:   "tpbuf-alloc",
	FlightTPBufHit:     "tpbuf-hit",
	FlightSkipSpan:     "skip-span",
}

// String returns the dump label for the kind.
func (k FlightKind) String() string {
	if k < flightKindCount {
		return flightKindNames[k]
	}
	return "unknown"
}

// MarshalJSON encodes the kind as its string label so dumps are readable
// without a decoder ring.
func (k FlightKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a string label back into the kind.
func (k *FlightKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range flightKindNames {
		if name == s {
			*k = FlightKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown flight event kind %q", s)
}

// FlightEvent is one recorded microarchitectural event. The struct holds no
// pointers or strings: recording one is a ring store, and a full ring stays
// invisible to the garbage collector.
type FlightEvent struct {
	Cycle   uint64     `json:"cycle"`
	Kind    FlightKind `json:"kind"`
	Seq     uint64     `json:"seq,omitempty"`
	PC      uint64     `json:"pc,omitempty"`
	Aux     uint64     `json:"aux,omitempty"`
	Suspect bool       `json:"suspect,omitempty"`
}

// Default flight-recorder geometry: the dump window in cycles and the event
// ring capacity. 2048 cycles comfortably covers a watchdog window's tail
// (the default no-progress limit is 4096+64*memLat), and 16384 events bound
// the ring at ~0.75 MiB.
const (
	DefaultFlightWindow   = 2048
	DefaultFlightCapacity = 16384
)

// FlightRecorder is a fixed-capacity ring of FlightEvents and an
// EventSink. All methods are nil-safe: a nil *FlightRecorder records and
// dumps nothing.
type FlightRecorder struct {
	window  uint64
	ring    []FlightEvent
	head    int // next write slot
	count   int // live events; saturates at len(ring)
	dropped uint64
}

// NewFlightRecorder builds a recorder whose dumps cover the last window
// cycles, backed by a ring of capacity events. Zero values select
// DefaultFlightWindow / DefaultFlightCapacity.
func NewFlightRecorder(window uint64, capacity int) *FlightRecorder {
	if window == 0 {
		window = DefaultFlightWindow
	}
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{window: window, ring: make([]FlightEvent, capacity)}
}

// Window reports the dump window in cycles.
func (f *FlightRecorder) Window() uint64 {
	if f == nil {
		return 0
	}
	return f.window
}

// Reset empties the ring (events recorded before a stats reset describe the
// discarded warmup, not the measured run).
func (f *FlightRecorder) Reset() {
	if f == nil {
		return
	}
	f.head, f.count, f.dropped = 0, 0, 0
}

// Event appends ev, overwriting the oldest event when the ring is full.
// It never allocates.
func (f *FlightRecorder) Event(ev FlightEvent) {
	if f == nil {
		return
	}
	if f.count == len(f.ring) {
		f.dropped++
	} else {
		f.count++
	}
	f.ring[f.head] = ev
	if f.head++; f.head == len(f.ring) {
		f.head = 0
	}
}

// Flush is a no-op: the ring is read through Dump.
func (f *FlightRecorder) Flush() error { return nil }

// FlightDump is the structured rendering of the ring at a failure point:
// every retained event from the last Window cycles before Cycle, oldest
// first, plus an O3PipeView tail reconstructed from the per-instruction
// stage events (loadable in Konata next to a full -pipeview trace).
type FlightDump struct {
	Cycle      uint64        `json:"cycle"`
	Window     uint64        `json:"window"`
	Capacity   int           `json:"capacity"`
	Dropped    uint64        `json:"dropped,omitempty"`
	FirstCycle uint64        `json:"first_cycle"`
	LastCycle  uint64        `json:"last_cycle"`
	Events     []FlightEvent `json:"events"`
	PipeView   string        `json:"pipeview,omitempty"`
}

// Dump renders the ring as of cycle now. Events older than the window are
// trimmed; the ring itself is untouched, so a recorder can be dumped more
// than once. Returns nil on a nil or empty recorder. Dump allocates — it
// runs on failure paths, never on the cycle loop.
func (f *FlightRecorder) Dump(now uint64) *FlightDump {
	if f == nil || f.count == 0 {
		return nil
	}
	start := f.head - f.count
	if start < 0 {
		start += len(f.ring)
	}
	var horizon uint64
	if now > f.window {
		horizon = now - f.window + 1
	}
	events := make([]FlightEvent, 0, f.count)
	for i := 0; i < f.count; i++ {
		ev := f.ring[(start+i)%len(f.ring)]
		if ev.Cycle < horizon {
			continue
		}
		events = append(events, ev)
	}
	d := &FlightDump{
		Cycle:    now,
		Window:   f.window,
		Capacity: len(f.ring),
		Dropped:  f.dropped,
		Events:   events,
		PipeView: flightPipeView(events),
	}
	if len(events) > 0 {
		d.FirstCycle = events[0].Cycle
		d.LastCycle = events[len(events)-1].Cycle
	}
	return d
}

// flightPipeView rebuilds an O3PipeView fragment from the per-instruction
// stage events in the dump window, using PipeViewSink's record writer.
// Flight dumps carry no disassembly, so the label is the PC; instructions
// squashed inside the window retire with tick 0, and instructions still in
// flight at the dump point are rendered the same way (they never retired).
func flightPipeView(events []FlightEvent) string {
	recs := make(map[uint64]*pvRecord)
	get := func(ev FlightEvent) *pvRecord {
		r := recs[ev.Seq]
		if r == nil {
			r = &pvRecord{pc: ev.PC}
			recs[ev.Seq] = r
		}
		if r.pc == 0 {
			r.pc = ev.PC
		}
		return r
	}
	for _, ev := range events {
		switch ev.Kind {
		case FlightFetch:
			get(ev).fetch = ev.Cycle
		case FlightDispatch:
			get(ev).dispatch = ev.Cycle
		case FlightIssue:
			r := get(ev)
			r.issue = ev.Cycle
			r.suspect = r.suspect || ev.Suspect
		case FlightWriteback:
			get(ev).complete = ev.Cycle
		case FlightCommit:
			get(ev).retire = ev.Cycle
		}
	}
	var sb strings.Builder
	for _, seq := range seqsFrom(recs, 0) {
		r := recs[seq]
		r.label = fmt.Sprintf("pc=0x%x", r.pc)
		r.write(&sb, seq)
	}
	return sb.String()
}
