package obs

import (
	"errors"
	"strings"
	"testing"
)

// disasmOf is a fixed PC-to-disassembly lookup standing in for the CPU's
// view of memory.
func disasmOf(m map[uint64]string) Disasm {
	return func(pc uint64) string { return m[pc] }
}

func TestTextSinkFormat(t *testing.T) {
	var sb strings.Builder
	s := NewTextSink(&sb, disasmOf(map[uint64]string{0x1000: "addi x5, x0, 1"}))
	s.Event(FlightEvent{Cycle: 12, Kind: FlightFetch, Seq: 3, PC: 0x1000})
	// Kinds the text tracer does not render produce no line.
	s.Event(FlightEvent{Cycle: 13, Kind: FlightSuspectOpen, Seq: 3, PC: 0x1000, Suspect: true})
	s.Event(FlightEvent{Cycle: 14, Kind: FlightSkipSpan, Aux: 9})
	s.Event(FlightEvent{Cycle: 15, Kind: FlightSquash, Seq: 4, Aux: 0x2000})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "      12 FETCH    seq=3      pc=0x1000  addi x5, x0, 1\n" +
		"      15 SQUASH   from seq=4, redirect pc=0x2000\n"
	if sb.String() != want {
		t.Fatalf("text sink output:\n%q\nwant:\n%q", sb.String(), want)
	}
}

// failWriter accepts n writes, then fails every later one.
type failWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errDiskFull
	}
	w.n--
	return len(p), nil
}

// TestTextSinkWriteError: a failed write must surface from Flush (a
// truncated trace is not a successful run), and the sink stops writing
// after the first failure.
func TestTextSinkWriteError(t *testing.T) {
	w := &failWriter{n: 1}
	s := NewTextSink(w, disasmOf(nil))
	for seq := uint64(1); seq <= 4; seq++ {
		s.Event(FlightEvent{Cycle: seq, Kind: FlightFetch, Seq: seq, PC: 0x1000})
	}
	if err := s.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush() = %v, want %v", err, errDiskFull)
	}
}

// TestPipeViewSinkRecord drives one committed and one squashed instruction
// through the sink and pins the O3PipeView line format Konata parses.
func TestPipeViewSinkRecord(t *testing.T) {
	var sb strings.Builder
	p := NewPipeViewSink(&sb, disasmOf(map[uint64]string{
		0x1000: "ld x5, 0(x6)",
		0x1004: "addi x7, x7, 1",
	}))
	// Committed load, suspect at issue.
	p.Event(FlightEvent{Cycle: 1, Kind: FlightFetch, Seq: 1, PC: 0x1000})
	p.Event(FlightEvent{Cycle: 4, Kind: FlightDispatch, Seq: 1, PC: 0x1000})
	p.Event(FlightEvent{Cycle: 6, Kind: FlightIssue, Seq: 1, PC: 0x1000, Suspect: true})
	p.Event(FlightEvent{Cycle: 9, Kind: FlightWriteback, Seq: 1, PC: 0x1000})
	p.Event(FlightEvent{Cycle: 10, Kind: FlightCommit, Seq: 1, PC: 0x1000})
	// Wrong-path instruction: fetched, dispatched, squashed.
	p.Event(FlightEvent{Cycle: 2, Kind: FlightFetch, Seq: 2, PC: 0x1004})
	p.Event(FlightEvent{Cycle: 5, Kind: FlightDispatch, Seq: 2, PC: 0x1004})
	p.Event(FlightEvent{Cycle: 11, Kind: FlightSquash, Seq: 2, Aux: 0x2000})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"O3PipeView:fetch:1:0x0000000000001000:0:1:ld x5, 0(x6) [suspect]",
		"O3PipeView:decode:4",
		"O3PipeView:rename:4",
		"O3PipeView:dispatch:4",
		"O3PipeView:issue:6",
		"O3PipeView:complete:9",
		"O3PipeView:retire:10:store:0",
		"O3PipeView:fetch:2:0x0000000000001004:0:2:addi x7, x7, 1",
		"O3PipeView:decode:5",
		"O3PipeView:rename:5",
		"O3PipeView:dispatch:5",
		"O3PipeView:issue:0",
		"O3PipeView:complete:0",
		"O3PipeView:retire:0:store:0",
		"",
	}, "\n")
	if sb.String() != want {
		t.Fatalf("pipeview output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestPipeViewSinkIgnoresUnknownSeq covers mid-run attachment: events for
// instructions fetched before the sink existed must not create records.
func TestPipeViewSinkIgnoresUnknownSeq(t *testing.T) {
	var sb strings.Builder
	p := NewPipeViewSink(&sb, disasmOf(nil))
	p.Event(FlightEvent{Cycle: 4, Kind: FlightDispatch, Seq: 9, PC: 0x1000})
	p.Event(FlightEvent{Cycle: 6, Kind: FlightCommit, Seq: 9, PC: 0x1000})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "" {
		t.Fatalf("expected no output for unknown seq, got:\n%s", sb.String())
	}
}

// TestPipeViewSinkBlockedLatch pins where a suspect-open event turns into a
// [blocked] marker: it is folded in at issue and at commit, so a squashed
// instruction is marked only if it was blocked before an issue, while a
// committed one is marked whenever it was blocked.
func TestPipeViewSinkBlockedLatch(t *testing.T) {
	var sb strings.Builder
	p := NewPipeViewSink(&sb, disasmOf(map[uint64]string{0x1000: "ld x5, 0(x6)"}))
	for seq := uint64(1); seq <= 4; seq++ {
		p.Event(FlightEvent{Cycle: seq, Kind: FlightFetch, Seq: seq, PC: 0x1000})
	}
	// seq 1: blocked before issue, then committed.
	p.Event(FlightEvent{Cycle: 5, Kind: FlightSuspectOpen, Seq: 1, PC: 0x1000, Suspect: true})
	p.Event(FlightEvent{Cycle: 6, Kind: FlightIssue, Seq: 1, PC: 0x1000, Suspect: true})
	p.Event(FlightEvent{Cycle: 9, Kind: FlightCommit, Seq: 1, PC: 0x1000})
	// seq 2: blocked after issue, then committed.
	p.Event(FlightEvent{Cycle: 6, Kind: FlightIssue, Seq: 2, PC: 0x1000})
	p.Event(FlightEvent{Cycle: 7, Kind: FlightSuspectOpen, Seq: 2, PC: 0x1000, Suspect: true})
	p.Event(FlightEvent{Cycle: 10, Kind: FlightCommit, Seq: 2, PC: 0x1000})
	// seq 3: blocked after issue, then squashed.
	p.Event(FlightEvent{Cycle: 6, Kind: FlightIssue, Seq: 3, PC: 0x1000})
	p.Event(FlightEvent{Cycle: 7, Kind: FlightSuspectOpen, Seq: 3, PC: 0x1000, Suspect: true})
	// seq 4: blocked before issue, then squashed.
	p.Event(FlightEvent{Cycle: 7, Kind: FlightSuspectOpen, Seq: 4, PC: 0x1000, Suspect: true})
	p.Event(FlightEvent{Cycle: 8, Kind: FlightIssue, Seq: 4, PC: 0x1000})
	p.Event(FlightEvent{Cycle: 11, Kind: FlightSquash, Seq: 3, Aux: 0x2000})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "O3PipeView:fetch:") {
			labels = append(labels, line[strings.LastIndex(line, ":")+1:])
		}
	}
	want := []string{
		"ld x5, 0(x6) [suspect] [blocked]",
		"ld x5, 0(x6) [blocked]",
		"ld x5, 0(x6)",
		"ld x5, 0(x6) [blocked]",
	}
	if strings.Join(labels, "|") != strings.Join(want, "|") {
		t.Fatalf("labels = %q, want %q", labels, want)
	}
}
