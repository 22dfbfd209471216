package pipeline

import (
	"testing"

	"conspec/internal/asm"
	"conspec/internal/core"
	"conspec/internal/isa"
)

// patchedAddi is the instruction both tests write over `addi s4, zero, 7`.
var patchedAddi = isa.Inst{Op: isa.OpAddi, Rd: asm.S4, Rs1: asm.Zero, Imm: 42}

// TestStoreIntoCodeAllDefenses: a committed store rewrites an instruction
// word in the program's own code page, and the program reaches that word
// only after a 1000-iteration loop, long after the store committed. Fetch
// reads instructions through the memory's code-page cursor, so it must see
// the rewritten word: every backend ends with the reference interpreter's
// registers and instruction count.
func TestStoreIntoCodeAllDefenses(t *testing.T) {
	b := asm.New()
	b.LiAddr(asm.A0, "patch")
	b.Li64(asm.T0, isa.Encode(patchedAddi))
	b.St(asm.T0, asm.A0, 0)
	b.Li(asm.S0, 0)
	b.Li(asm.S1, 1000)
	b.Bind("loop")
	b.Addi(asm.S0, asm.S0, 1)
	b.Blt(asm.S0, asm.S1, "loop")
	b.Bind("patch")
	b.Addi(asm.S4, asm.Zero, 7)
	b.Halt()
	prog := b.MustAssemble(testBase)
	if prog.End()>>isa.PageBits != prog.Base>>isa.PageBits {
		t.Fatal("the program must fit in one code page")
	}

	ref := isa.NewFlatMem()
	prog.Load(ref)
	interp := isa.NewInterp(ref, prog.Base)
	if _, err := interp.Run(100_000); err != nil || !interp.Halted {
		t.Fatalf("interpreter: halted=%v err=%v", interp.Halted, err)
	}
	if got := interp.Regs[asm.S4]; got != 42 {
		t.Fatalf("interpreter: s4 = %d, want 42 (the patched instruction)", got)
	}

	for _, d := range core.Defenses() {
		t.Run(d.Name(), func(t *testing.T) {
			sec := SecurityConfig{Mechanism: d.Mechanism(), SSBD: d.SSBD()}
			cpu, res := runOn(t, smallCore(), sec, prog, nil, 1_000_000)
			for r := 1; r < isa.NumRegs; r++ {
				if got, want := cpu.ArchReg(r), interp.Regs[r]; got != want {
					t.Errorf("x%d = %#x, want %#x", r, got, want)
				}
			}
			if res.Committed != interp.InstRet {
				t.Errorf("committed %d, interpreter retired %d", res.Committed, interp.InstRet)
			}
		})
	}
}

// TestPatchBetweenRuns follows the attack harness's pattern of reusing a
// machine: run to HALT, patch one instruction through the backing memory,
// steer fetch back to the entry and run again. The second run must execute
// the new instruction although the fetch cursor still holds the code page.
func TestPatchBetweenRuns(t *testing.T) {
	b := asm.New()
	b.Li(asm.S0, 0)
	b.Li(asm.S1, 200)
	b.Bind("loop")
	b.Addi(asm.S0, asm.S0, 1)
	b.Blt(asm.S0, asm.S1, "loop")
	b.Bind("patch")
	b.Addi(asm.S4, asm.Zero, 7)
	b.Halt()
	prog := b.MustAssemble(testBase)
	patchPC, ok := b.PCOf(testBase, "patch")
	if !ok {
		t.Fatal("patch label unbound")
	}

	for _, d := range core.Defenses() {
		t.Run(d.Name(), func(t *testing.T) {
			backing := isa.NewFlatMem()
			prog.Load(backing)
			cpu := NewWithMemory(smallCore(), SecurityConfig{Mechanism: d.Mechanism(), SSBD: d.SSBD()}, backing)
			cpu.SetPC(prog.Base)
			cpu.Run(100_000)
			if !cpu.Halted() || cpu.ArchReg(int(asm.S4)) != 7 {
				t.Fatalf("first run: halted=%v s4=%d, want s4=7", cpu.Halted(), cpu.ArchReg(int(asm.S4)))
			}
			backing.Write(patchPC, isa.InstBytes, isa.Encode(patchedAddi))
			cpu.SetPC(prog.Base)
			cpu.Run(100_000)
			if !cpu.Halted() {
				t.Fatal("second run did not halt")
			}
			if got := cpu.ArchReg(int(asm.S4)); got != 42 {
				t.Fatalf("second run: s4 = %d, want 42 from the patched instruction", got)
			}
		})
	}
}
