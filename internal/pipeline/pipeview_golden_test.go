package pipeline

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"conspec/internal/asm"
	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// goldenKernel is a short, fully deterministic guest program: a loop over
// a small buffer with a data-dependent branch (mispredicts → squashed,
// tick-0 records) and loads issued under an unresolved branch (suspect
// annotations under tpbuf), ending in HALT.
func goldenKernel() *asm.Program {
	b := asm.New()
	b.Li(asm.A0, 0x40000) // buffer
	b.Li(asm.S0, 0)       // i
	b.Li(asm.S1, 7)       // index mask
	b.Li(asm.S2, 24)      // iterations
	b.Li(asm.S3, 0)       // checksum
	b.Bind("loop")
	b.And(asm.T0, asm.S0, asm.S1)
	b.Shli(asm.T0, asm.T0, 3)
	b.Add(asm.T1, asm.A0, asm.T0)
	b.St(asm.S3, asm.T1, 0)
	b.Ld(asm.T2, asm.T1, 0)
	b.Add(asm.S3, asm.S3, asm.T2)
	b.Addi(asm.S0, asm.S0, 1)
	b.Andi(asm.T4, asm.S3, 1)
	b.Beq(asm.T4, asm.Zero, "skip")
	b.Ld(asm.T5, asm.A0, 0)
	b.Add(asm.S3, asm.S3, asm.T5)
	b.Bind("skip")
	b.Blt(asm.S0, asm.S2, "loop")
	b.Halt()
	return b.MustAssemble(testBase)
}

// runGoldenKernel runs goldenKernel to HALT under sec with attach wiring
// the event sinks, flushes them, and returns what they wrote to buf.
func runGoldenKernel(t *testing.T, sec SecurityConfig, attach func(cpu *CPU, buf *bytes.Buffer)) []byte {
	t.Helper()
	prog := goldenKernel()
	backing := isa.NewFlatMem()
	prog.Load(backing)
	cpu := NewWithMemory(smallCore(), sec, backing)
	var buf bytes.Buffer
	attach(cpu, &buf)
	cpu.SetPC(prog.Base)
	cpu.Run(100_000)
	if !cpu.Halted() {
		t.Fatal("golden kernel did not halt")
	}
	if err := cpu.FlushSinks(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// checkGolden compares got byte-for-byte against testdata/name, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gotL := bytes.Split(got, []byte("\n"))
		wantL := bytes.Split(want, []byte("\n"))
		line := 0
		for line < len(gotL) && line < len(wantL) && bytes.Equal(gotL[line], wantL[line]) {
			line++
		}
		g, w := "<eof>", "<eof>"
		if line < len(gotL) {
			g = string(gotL[line])
		}
		if line < len(wantL) {
			w = string(wantL[line])
		}
		t.Fatalf("%s drifted from golden at line %d:\n got: %s\nwant: %s\n(%d vs %d bytes; regenerate with -update if intended)",
			name, line+1, g, w, len(got), len(want))
	}
}

// TestPipeViewGolden pins the O3PipeView trace byte-for-byte: the gem5
// record grammar, the cycle numbering, the retire/flush sentinels and the
// suspect/blocked disasm annotations are all format contracts consumed by
// external viewers (Konata, gem5's o3-pipeview.py), so any drift must be a
// conscious decision. Regenerate this and the other trace goldens with:
//
//	go test ./internal/pipeline -run 'Golden$' -update
func TestPipeViewGolden(t *testing.T) {
	got := runGoldenKernel(t,
		SecurityConfig{Mechanism: core.CacheHitTPBuf, Scope: core.ScopeBranchMem},
		func(cpu *CPU, buf *bytes.Buffer) { cpu.AttachSink(obs.NewPipeViewSink(buf, cpu.Disasm)) })
	checkGolden(t, "pipeview_golden.trace", got)
}

// TestPipeViewBaselineGolden pins the [blocked] annotation path: under
// Baseline every suspect memory instruction is held at issue, so records
// carry the marker the cache-hit/TPBuf golden never shows.
func TestPipeViewBaselineGolden(t *testing.T) {
	got := runGoldenKernel(t,
		SecurityConfig{Mechanism: core.Baseline, Scope: core.ScopeBranchMem},
		func(cpu *CPU, buf *bytes.Buffer) { cpu.AttachSink(obs.NewPipeViewSink(buf, cpu.Disasm)) })
	if !bytes.Contains(got, []byte(" [blocked]\n")) {
		t.Fatal("baseline trace has no [blocked] record")
	}
	checkGolden(t, "pipeview_baseline_golden.trace", got)
}

// TestTextTraceGolden pins the text tracer's content: one line per stage
// event with the instruction's disassembly, plus the squash lines.
func TestTextTraceGolden(t *testing.T) {
	got := runGoldenKernel(t,
		SecurityConfig{Mechanism: core.CacheHitTPBuf, Scope: core.ScopeBranchMem},
		func(cpu *CPU, buf *bytes.Buffer) { cpu.AttachTracer(buf) })
	checkGolden(t, "text_golden.trace", got)
}
