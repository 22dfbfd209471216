// Quickstart: assemble a tiny program with the text assembler, run it on
// the out-of-order core under the unprotected Origin configuration and
// under the full Conditional Speculation mechanism, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"conspec/internal/asm"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/pipeline"
)

// The guest program: sum a small array, with one cold pointer dereference
// per element to give the memory system something to do.
const src = `
	li   s0, 0          ; sum
	li   s1, 0          ; i
	li   s2, 512        ; n
	li   a0, 0x100000   ; array base
loop:
	shli t0, s1, 3
	add  t0, a0, t0
	ld   t1, 0(t0)      ; array[i]
	add  s0, s0, t1
	addi s1, s1, 1
	blt  s1, s2, loop
	halt
`

func main() {
	b, err := asm.ParseText(src)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := b.Assemble(0x1000)
	if err != nil {
		log.Fatal(err)
	}

	for _, mech := range []core.Mechanism{core.Origin, core.CacheHitTPBuf} {
		backing := isa.NewFlatMem()
		prog.Load(backing)
		for i := 0; i < 512; i++ {
			backing.Write(0x100000+uint64(i)*8, 8, uint64(i))
		}

		cpu := pipeline.NewWithMemory(config.PaperCore(),
			pipeline.SecurityConfig{Mechanism: mech}, backing)
		cpu.SetPC(prog.Base)
		res := cpu.Run(1_000_000)

		fmt.Printf("== %v ==\n", mech)
		fmt.Printf("  sum        = %d (expect %d)\n", cpu.ArchReg(int(asm.S0)), 511*512/2)
		fmt.Printf("  cycles     = %d (IPC %.2f)\n", res.Cycles, res.IPC())
		fmt.Printf("  L1D hits   = %.1f%%\n", 100*res.L1D.HitRate())
		if d, _ := core.DefenseFor(mech, false); d.Hooks().TracksDependence {
			fmt.Printf("  suspect    = %d issued, %d blocked events\n",
				res.Filter.SuspectIssued, res.Filter.BlockedEvents)
		}
		fmt.Println()
	}
}
