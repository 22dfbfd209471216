// Command conspec-attack runs Spectre proof-of-concept attacks inside the
// simulator against each Conditional Speculation mechanism and reports
// whether the secret leaked — the reproduction of the paper's Table IV.
//
// Usage:
//
//	conspec-attack -list
//	conspec-attack -all
//	conspec-attack -scenario spectre-v1/flush+reload -mech tpbuf
//	conspec-attack -lru          # §VII.A replacement-state channel
//	conspec-attack -tlb          # DTLB channel + the filter extension
//	conspec-attack -crosscore    # two cores, two programs, mailbox IPC
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"conspec/internal/attack"
	"conspec/internal/buildinfo"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/exp"
	"conspec/internal/mem"
	"conspec/internal/obs"
	"conspec/internal/pipeline"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list scenarios and exit")
		all       = flag.Bool("all", false, "run every scenario under every mechanism (Table IV)")
		scenario  = flag.String("scenario", "", "scenario name (see -list)")
		mech      = flag.String("mech", "", "defense: "+core.DefenseUsage()+"; empty = the four paper variants")
		lru       = flag.Bool("lru", false, "run the §VII.A LRU side channel across update policies")
		crossCore = flag.Bool("crosscore", false, "run the two-core, two-program attack (victim per mechanism)")
		tlb       = flag.Bool("tlb", false, "run the DTLB-refill side channel and its filter extension")
		pipeview  = flag.String("pipeview", "", "write an O3PipeView trace (Konata-compatible) of a -scenario run to FILE (requires -mech)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Short("conspec-attack"))
		return
	}

	// SIGINT cancels the run: whatever outcomes completed are already
	// printed, and the process exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A slimmed hierarchy keeps PoC runs quick without changing L1 geometry
	// (the receivers' set arithmetic depends only on the L1).
	cfg := config.PaperCore()
	cfg.Mem.L2Size = 256 * 1024
	cfg.Mem.L3Size = 1024 * 1024

	if *list {
		for _, h := range attack.Scenarios(cfg) {
			fmt.Printf("%-28s %-30s variant %s\n", h.Name, h.Class, h.Variant)
		}
		return
	}

	// checkCancelled exits non-zero once the context is cancelled; the
	// outcomes printed so far are the flushed partial results.
	checkCancelled := func() {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted")
			os.Exit(1)
		}
	}

	if *lru {
		h := attack.LRUSideChannel(cfg)
		fmt.Printf("scenario: %s — suspect L1D HITS leak through replacement state\n\n", h.Name)
		for _, pol := range []mem.UpdatePolicy{mem.UpdateAlways, mem.UpdateNoSpec, mem.UpdateDelayed} {
			checkCancelled()
			c := cfg
			c.Mem.L1DUpdate = pol
			o := h.Run(c, pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf})
			fmt.Printf("L1D update policy %-15v recovered %x  %d/%d bytes\n",
				pol, o.Recovered, o.Correct, len(o.Secret))
		}
		return
	}

	if *tlb {
		h := attack.V1TLBChannel(cfg)
		fmt.Println("scenario:", h.Name, "— probe timing includes the DTLB walk")
		fmt.Println()
		type cse struct {
			m core.Mechanism
			f bool
		}
		for _, tc := range []cse{{core.Origin, false}, {core.Baseline, false},
			{core.CacheHitTPBuf, false}, {core.CacheHitTPBuf, true}} {
			checkCancelled()
			o := h.Run(cfg, pipeline.SecurityConfig{Mechanism: tc.m, DTLBFilter: tc.f})
			status := "DEFENDED"
			if o.Leaked {
				status = "LEAKED"
			}
			fmt.Printf("%-34s dtlb-filter=%-5v recovered %x  %s\n", tc.m, tc.f, o.Recovered, status)
		}
		return
	}

	if *crossCore {
		fmt.Println("cross-core attack: attacker process on core A (unprotected),")
		fmt.Println("victim service on core B, shared L2/L3, mailbox IPC")
		fmt.Println()
		for _, m := range core.Mechanisms {
			checkCancelled()
			o := attack.RunCrossCore(cfg, m)
			status := "DEFENDED"
			if o.Leaked {
				status = "LEAKED"
			}
			fmt.Printf("victim core: %-34s recovered %x  %d/%d  %s\n",
				m, o.Recovered, o.Correct, len(o.Secret), status)
		}
		return
	}

	if *all {
		runner := exp.NewRunner(exp.RunnerOptions{OnEvent: func(ev exp.ProgressEvent) {
			if ev.Line != "" {
				fmt.Println(ev.Line)
			}
		}})
		outcomes, err := runner.Table4(ctx, cfg)
		if err != nil {
			// Flush the outcomes that completed before cancellation.
			if errors.Is(err, context.Canceled) && len(outcomes) > 0 {
				fmt.Println()
				fmt.Println(exp.Table4Text(outcomes))
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Println(exp.Table4Text(outcomes))
		return
	}

	h, ok := attack.ByName(cfg, *scenario)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q (try -list)\n", *scenario)
		os.Exit(2)
	}
	// Empty -mech keeps the historical default: the four paper variants.
	var defs []core.Defense
	if *mech == "" {
		for _, m := range core.Mechanisms {
			d, _ := core.DefenseFor(m, false)
			defs = append(defs, d)
		}
	} else {
		d, err := core.LookupDefense(*mech)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defs = append(defs, d)
	}
	if *pipeview != "" && len(defs) != 1 {
		fmt.Fprintln(os.Stderr, "-pipeview traces one run: pick a mechanism with -mech")
		os.Exit(2)
	}
	for _, d := range defs {
		checkCancelled()
		setup := func(*pipeline.CPU) {}
		if *pipeview != "" {
			f, err := os.Create(*pipeview)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			setup = func(c *pipeline.CPU) { c.AttachSink(obs.NewPipeViewSink(f, c.Disasm)) }
		}
		o := h.RunWith(cfg, exp.SecFor(d), setup)
		fmt.Println(o)
		fmt.Printf("    secret %x, recovered %x (%d cycles)\n", o.Secret, o.Recovered, o.Cycles)
	}
}
