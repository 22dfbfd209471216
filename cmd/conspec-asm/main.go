// Command conspec-asm assembles and runs guest programs written in the
// conspec ISA's text syntax. It is the developer tool for writing new
// gadgets and microbenchmarks:
//
//	conspec-asm -disasm prog.s            # assemble, print the listing
//	conspec-asm -run prog.s               # run on the out-of-order core
//	conspec-asm -run prog.s -trace        # per-event pipeline trace
//	conspec-asm -run prog.s -mech tpbuf   # under a defense mechanism
//	conspec-asm -run prog.s -golden       # cross-check vs the interpreter
//
// The program runs until HALT or -maxcycles. Final architectural register
// state is printed (non-zero registers only).
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"

	"conspec/internal/asm"
	"conspec/internal/buildinfo"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/exp"
	"conspec/internal/isa"
	"conspec/internal/obs"
	"conspec/internal/pipeline"
)

func main() {
	var (
		runFile   = flag.String("run", "", "assemble and run this file")
		disasm    = flag.String("disasm", "", "assemble this file and print the listing")
		base      = flag.Uint64("base", 0x1000, "load address")
		mech      = flag.String("mech", "origin", "defense: "+core.DefenseUsage())
		maxCycles = flag.Uint64("maxcycles", 10_000_000, "cycle budget")
		trace     = flag.Bool("trace", false, "print a pipeline event trace")
		pipeview  = flag.String("pipeview", "", "write an O3PipeView trace (Konata-compatible) to FILE")
		golden    = flag.Bool("golden", false, "cross-check against the reference interpreter")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Short("conspec-asm"))
		return
	}

	path := *runFile
	if path == "" {
		path = *disasm
	}
	if path == "" {
		fmt.Fprintln(os.Stderr, "usage: conspec-asm -run prog.s | -disasm prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	b, err := asm.ParseText(string(src))
	if err != nil {
		fatal(err)
	}
	prog, err := b.Assemble(*base)
	if err != nil {
		fatal(err)
	}

	if *disasm != "" {
		fmt.Print(prog.Listing())
		return
	}

	d, err := core.LookupDefense(cmp.Or(*mech, "origin")) // "" keeps the historical default
	if err != nil {
		fatal(err)
	}

	backing := isa.NewFlatMem()
	prog.Load(backing)
	cpu := pipeline.NewWithMemory(config.PaperCore(), exp.SecFor(d), backing)
	if *trace {
		cpu.AttachTracer(os.Stderr)
	}
	if *pipeview != "" {
		f, err := os.Create(*pipeview)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cpu.AttachSink(obs.NewPipeViewSink(f, cpu.Disasm))
	}
	cpu.SetPC(prog.Base)
	res := cpu.Run(*maxCycles)
	if err := cpu.FlushSinks(); err != nil {
		fatal(err)
	}

	if !cpu.Halted() {
		fmt.Fprintf(os.Stderr, "warning: no HALT within %d cycles\n", *maxCycles)
	}
	fmt.Printf("mechanism: %v\n", d.Title())
	fmt.Printf("committed: %d instructions in %d cycles (IPC %.2f)\n",
		res.Committed, res.Cycles, res.IPC())
	fmt.Printf("L1D hit  : %.1f%%   branch mispredict: %.1f%%   squashes: %d\n",
		100*res.L1D.HitRate(), 100*res.Branch.MispredictRate(), res.Squashes)
	fmt.Println("registers (non-zero):")
	for r := 1; r < isa.NumRegs; r++ {
		if v := cpu.ArchReg(r); v != 0 {
			fmt.Printf("  x%-2d = %#x (%d)\n", r, v, v)
		}
	}

	if *golden {
		ref := isa.NewFlatMem()
		prog.Load(ref)
		in := isa.NewInterp(ref, prog.Base)
		if _, err := in.Run(50_000_000); err != nil {
			fatal(err)
		}
		mismatches := 0
		for r := 1; r < isa.NumRegs; r++ {
			if cpu.ArchReg(r) != in.Regs[r] {
				fmt.Printf("GOLDEN MISMATCH x%d: pipeline %#x, interpreter %#x\n",
					r, cpu.ArchReg(r), in.Regs[r])
				mismatches++
			}
		}
		if mismatches == 0 {
			fmt.Println("golden check: architectural state matches the interpreter")
		} else {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
