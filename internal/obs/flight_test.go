package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestFlightRecorderRingAndTrim(t *testing.T) {
	f := NewFlightRecorder(100, 4)
	if got := f.Window(); got != 100 {
		t.Fatalf("Window() = %d, want 100", got)
	}
	// Six events into a 4-slot ring: the first two are overwritten.
	for i := uint64(1); i <= 6; i++ {
		f.Event(FlightEvent{Cycle: i * 10, Kind: FlightFetch, Seq: i, PC: 0x1000 + i})
	}
	d := f.Dump(60)
	if d == nil {
		t.Fatal("Dump returned nil on a populated recorder")
	}
	if d.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", d.Dropped)
	}
	if len(d.Events) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(d.Events))
	}
	if d.Events[0].Cycle != 30 || d.Events[3].Cycle != 60 {
		t.Fatalf("event cycles = %d..%d, want 30..60", d.Events[0].Cycle, d.Events[3].Cycle)
	}
	if d.FirstCycle != 30 || d.LastCycle != 60 {
		t.Fatalf("First/LastCycle = %d/%d, want 30/60", d.FirstCycle, d.LastCycle)
	}
	// A dump far in the future trims everything outside the window.
	if d := f.Dump(1000); d == nil || len(d.Events) != 0 {
		t.Fatalf("out-of-window dump = %+v, want zero events", d)
	}
	// Dumping twice must not consume the ring.
	if d := f.Dump(60); len(d.Events) != 4 {
		t.Fatalf("second dump len = %d, want 4", len(d.Events))
	}
	f.Reset()
	if d := f.Dump(60); d != nil {
		t.Fatalf("dump after Reset = %+v, want nil", d)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Event(FlightEvent{Cycle: 1, Kind: FlightCommit, Seq: 1}) // must not panic
	f.Reset()
	if f.Window() != 0 {
		t.Fatal("nil Window() != 0")
	}
	if d := f.Dump(10); d != nil {
		t.Fatalf("nil Dump = %+v, want nil", d)
	}
}

func TestFlightRecorderDefaults(t *testing.T) {
	f := NewFlightRecorder(0, 0)
	if f.Window() != DefaultFlightWindow {
		t.Fatalf("default window = %d, want %d", f.Window(), DefaultFlightWindow)
	}
	f.Event(FlightEvent{Cycle: 1, Kind: FlightFetch, Seq: 1})
	if d := f.Dump(1); d.Capacity != DefaultFlightCapacity {
		t.Fatalf("default capacity = %d, want %d", d.Capacity, DefaultFlightCapacity)
	}
}

// TestFlightDumpGoldenRoundTrip pins the dump's JSON wire shape: a dump
// marshals, unmarshals, and compares deep-equal, and the encoded form uses
// the stable string labels for event kinds.
func TestFlightDumpGoldenRoundTrip(t *testing.T) {
	f := NewFlightRecorder(64, 32)
	f.Event(FlightEvent{Cycle: 10, Kind: FlightFetch, Seq: 7, PC: 0x400})
	f.Event(FlightEvent{Cycle: 11, Kind: FlightDispatch, Seq: 7, PC: 0x400})
	f.Event(FlightEvent{Cycle: 11, Kind: FlightSecRowSet, Seq: 7, PC: 0x400, Aux: 3})
	f.Event(FlightEvent{Cycle: 12, Kind: FlightSuspectOpen, Seq: 7, PC: 0x400, Suspect: true})
	f.Event(FlightEvent{Cycle: 20, Kind: FlightSuspectClose, Seq: 7, PC: 0x400, Aux: 8})
	f.Event(FlightEvent{Cycle: 20, Kind: FlightIssue, Seq: 7, PC: 0x400, Suspect: true})
	f.Event(FlightEvent{Cycle: 21, Kind: FlightSecRowClear, Seq: 7, PC: 0x400, Aux: 3})
	f.Event(FlightEvent{Cycle: 25, Kind: FlightTPBufAlloc, Seq: 7, PC: 0x400, Aux: 2})
	f.Event(FlightEvent{Cycle: 26, Kind: FlightTPBufHit, Seq: 7, PC: 0x400, Aux: 2, Suspect: true})
	f.Event(FlightEvent{Cycle: 30, Kind: FlightWriteback, Seq: 7, PC: 0x400})
	f.Event(FlightEvent{Cycle: 31, Kind: FlightCommit, Seq: 7, PC: 0x400})
	f.Event(FlightEvent{Cycle: 40, Kind: FlightSkipSpan, Aux: 17})
	f.Event(FlightEvent{Cycle: 60, Kind: FlightSquash, Seq: 9, Aux: 0x440})
	d := f.Dump(60)

	b, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, label := range []string{`"kind":"suspect-open"`, `"kind":"skip-span"`, `"kind":"tpbuf-hit"`, `"kind":"secrow-set"`} {
		if !strings.Contains(string(b), label) {
			t.Errorf("encoded dump missing %s:\n%s", label, b)
		}
	}
	var back FlightDump
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*d, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, *d)
	}

	// The O3PipeView tail reconstructs the instruction's full stage record.
	for _, line := range []string{
		"O3PipeView:fetch:10:0x0000000000000400:0:7:pc=0x400 [suspect]",
		"O3PipeView:issue:20",
		"O3PipeView:retire:31:store:0",
	} {
		if !strings.Contains(d.PipeView, line) {
			t.Errorf("pipeview missing %q:\n%s", line, d.PipeView)
		}
	}
}

func TestFlightKindUnmarshalUnknown(t *testing.T) {
	var k FlightKind
	if err := json.Unmarshal([]byte(`"warp-drive"`), &k); err == nil {
		t.Fatal("expected error for unknown kind label")
	}
}

func TestFlightRecordZeroAlloc(t *testing.T) {
	f := NewFlightRecorder(128, 64)
	n := testing.AllocsPerRun(1000, func() {
		f.Event(FlightEvent{Cycle: 1, Kind: FlightIssue, Seq: 2, PC: 3, Aux: 4, Suspect: true})
	})
	if n != 0 {
		t.Fatalf("Event allocates %v per call, want 0", n)
	}
}
