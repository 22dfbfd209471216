// Command conspec-sim runs one synthetic benchmark on one simulated core
// under one defense backend and prints the detailed statistics: cycles,
// IPC, cache behaviour, and the security-filter counters behind Table V.
// -mech accepts any name in the core defense registry (the four paper
// variants plus ssbd, fence, delay-on-miss, invisispec); the historical
// spellings ("tpbuf", "cache-hit") are aliases.
//
// Usage:
//
//	conspec-sim -list
//	conspec-sim -bench lbm -mech tpbuf
//	conspec-sim -bench astar -mech baseline -core xeon -measure 200000
//	conspec-sim -bench lbm -mech delay-on-miss
//
// The hardening layer is exposed for reproduction and debugging: -selfcheck
// audits the machine's invariants in-run, and -inject plants one seeded
// microarchitectural fault (see internal/faultinject) that those audits, the
// forward-progress watchdog, or downstream leak checks must catch:
//
//	conspec-sim -bench lbm -mech tpbuf -selfcheck 64
//	conspec-sim -bench astar -mech tpbuf -selfcheck 1 -inject secmatrix-bit -inject-seed 11 -inject-at 2000
//
// -flight-recorder N arms the microarchitectural flight recorder over the
// last N cycles; a failed run dumps it to stderr as JSON (with an
// O3PipeView tail), and -flight-out FILE captures it unconditionally:
//
//	conspec-sim -bench lbm -mech tpbuf -inject dropped-wakeup -flight-recorder 32768
//	conspec-sim -bench astar -mech tpbuf -flight-recorder 4096 -flight-out astar.flight.json
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"conspec/internal/buildinfo"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/exp"
	"conspec/internal/faultinject"
	"conspec/internal/mem"
	"conspec/internal/obs"
	"conspec/internal/pipeline"
	"conspec/internal/profutil"
	"conspec/internal/workload"
)

func coreByName(name string) (config.Core, bool) {
	switch strings.ToLower(name) {
	case "paper", "":
		return config.PaperCore(), true
	case "a57", "a57-like":
		return config.A57Like(), true
	case "i7", "i7-like":
		return config.I7Like(), true
	case "xeon", "xeon-like":
		return config.XeonLike(), true
	}
	return config.Core{}, false
}

func lruByName(name string) (mem.UpdatePolicy, bool) {
	switch strings.ToLower(name) {
	case "always", "":
		return mem.UpdateAlways, true
	case "noupdate", "no-update":
		return mem.UpdateNoSpec, true
	case "delayed", "delayed-update":
		return mem.UpdateDelayed, true
	}
	return 0, false
}

func main() {
	var (
		list    = flag.Bool("list", false, "list benchmarks and exit")
		bench   = flag.String("bench", "", "benchmark name (see -list)")
		mech    = flag.String("mech", "origin", "defense: "+core.DefenseUsage())
		coreF   = flag.String("core", "paper", "core: paper|a57|i7|xeon")
		scope   = flag.String("scope", "full", "matrix scope: full|branch-only")
		icache  = flag.Bool("icache", false, "enable the §VII.B ICache-hit filter")
		lru     = flag.String("lru", "always", "L1D update policy: always|noupdate|delayed")
		ssbd    = flag.Bool("ssbd", false, "disable speculative store bypass (V4 mitigation)")
		dtlbF   = flag.Bool("dtlbfilter", false, "enable the DTLB-hit filter extension")
		warmup  = flag.Uint64("warmup", 20_000, "warmup instructions")
		measure = flag.Uint64("measure", 120_000, "measured instructions")
		stages  = flag.Bool("stages", false, "print per-stage cycle-accounting counters")
		noSkip  = flag.Bool("no-skip", false, "disable event-driven stall skipping (debug escape hatch; results must not change)")

		selfchk    = flag.Uint64("selfcheck", 0, "audit pipeline and security invariants every N cycles; a violation fails the run (0 = off)")
		injectF    = flag.String("inject", "", "fault class to inject: secmatrix-bit|suspect-clear|tpbuf-bit|dropped-wakeup|lru-skew")
		injectSeed = flag.Int64("inject-seed", 1, "deterministic victim-selection seed for -inject")
		injectAt   = flag.Uint64("inject-at", 0, "first cycle eligible for injection")
		injectPers = flag.Bool("inject-persistent", false, "re-inject every cycle instead of once")
		injectFld  = flag.String("inject-field", "S", "TPBuf bit for -inject tpbuf-bit: V|W|S|P")

		flightRec = flag.Uint64("flight-recorder", 0, "arm the microarchitectural flight recorder over the last N cycles (0 = off)")
		flightOut = flag.String("flight-out", "", "write the flight dump as JSON to FILE ('-' = stderr); default stderr on failed runs only")

		traceF   = flag.String("trace", "", "write a text pipeline event trace to FILE ('-' = stderr)")
		pipeview = flag.String("pipeview", "", "write an O3PipeView trace (Konata-compatible) to FILE")
		metricsF = flag.String("metrics", "", "write the sampled metric time series to FILE (.csv = CSV, otherwise JSONL)")
		interval = flag.Uint64("metrics-interval", 1000, "metric sampling interval in cycles (with -metrics)")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	pflags := profutil.Register()
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Short("conspec-sim"))
		return
	}
	profStop, err := pflags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer profStop()

	if *list {
		for _, p := range workload.Profiles() {
			fmt.Printf("%-12s paper L1 hit %.1f%%\n", p.Name, 100*p.PaperL1HitRate)
		}
		return
	}

	prof, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (try -list)\n", *bench)
		os.Exit(2)
	}
	cfg, ok := coreByName(*coreF)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown core %q\n", *coreF)
		os.Exit(2)
	}
	d, err := core.LookupDefense(cmp.Or(*mech, "origin")) // "" keeps the historical default
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	hooks := d.Hooks()
	pol, ok := lruByName(*lru)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown lru policy %q\n", *lru)
		os.Exit(2)
	}
	sc := core.ScopeBranchMem
	if *scope == "branch-only" {
		sc = core.ScopeBranchOnly
	}

	w, err := workload.Generate(prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sec := exp.SecFor(d)
	sec.Scope = sc
	sec.ICacheFilter = *icache
	sec.SSBD = sec.SSBD || *ssbd
	sec.DTLBFilter = *dtlbF
	spec := exp.RunSpec{
		Core:      cfg,
		Sec:       sec,
		L1DUpdate: pol,
		Warmup:    *warmup,
		Measure:   *measure,
	}
	if *metricsF != "" {
		spec.MetricsInterval = *interval
	}
	spec.SelfCheck = *selfchk

	var inj *faultinject.Injector
	if *injectF != "" {
		class, err := faultinject.ByName(*injectF)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if len(*injectFld) != 1 || !strings.ContainsAny(*injectFld, "VWSP") {
			fmt.Fprintf(os.Stderr, "bad -inject-field %q (want V, W, S or P)\n", *injectFld)
			os.Exit(2)
		}
		inj = faultinject.New(faultinject.Config{
			Class:      class,
			Seed:       *injectSeed,
			Start:      *injectAt,
			Persistent: *injectPers,
			Field:      (*injectFld)[0],
		})
	}

	// Observability setup: sinks attach before warmup (a trace covers the
	// whole run); the metric registry attaches after warmup inside
	// RunWorkloadWith, so histograms cover exactly the measured phase.
	var sim *pipeline.CPU
	var closers []io.Closer
	setup := func(c *pipeline.CPU) {
		sim = c
		if *noSkip {
			c.SetStallSkip(false)
		}
		if *flightRec > 0 || *flightOut != "" {
			c.ArmFlightRecorder(*flightRec, 0)
		}
		if inj != nil {
			c.SetFaultHook(inj.Hook())
		}
		if *traceF != "" {
			tw, err := openOut(*traceF)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			closers = append(closers, tw)
			c.AttachTracer(tw)
		}
		if *pipeview != "" {
			pw, err := openOut(*pipeview)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			closers = append(closers, pw)
			c.AttachSink(obs.NewPipeViewSink(pw, c.Disasm))
		}
	}
	res := exp.RunWorkloadWith(w, spec, setup)
	if err := sim.FlushSinks(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, cl := range closers {
		if err := cl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *metricsF != "" {
		if err := writeSeries(*metricsF, res.Series); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Printf("benchmark   : %s on %s\n", prof.Name, cfg.Name)
	fmt.Printf("mechanism   : %v (scope %v, icache-filter %v, lru %v)\n", d.Title(), sc, *icache, pol)
	fmt.Printf("instructions: %d (after %d warmup)\n", res.Committed, *warmup)
	fmt.Printf("cycles      : %d  (IPC %.3f)\n", res.Cycles, res.IPC())
	fmt.Printf("L1D         : %.2f%% hit (%d accesses)\n", 100*res.L1D.HitRate(), res.L1D.Accesses)
	fmt.Printf("L1I         : %.2f%% hit\n", 100*res.L1I.HitRate())
	fmt.Printf("branches    : %.2f%% mispredicted (%d predicts)\n",
		100*res.Branch.MispredictRate(), res.Branch.CondPredicts)
	fmt.Printf("squashes    : %d (%d memory-order violations)\n", res.Squashes, res.MemViolations)
	if hooks.TracksDependence {
		fmt.Printf("suspect     : %d issued, %.2f%% hit L1D\n",
			res.Filter.SuspectIssued, 100*res.Filter.SpecHitRate())
		fmt.Printf("blocked     : %.2f%% of committed memory instructions (%d events)\n",
			100*res.Filter.BlockedRate(), res.Filter.BlockedEvents)
	}
	if hooks.TPBufFilter {
		fmt.Printf("TPBuf       : %d queries, %.2f%% S-Pattern mismatch (safe)\n",
			res.TPBuf.Queries, 100*res.TPBuf.MismatchRate())
	}
	if *icache {
		fmt.Printf("icache-stall: %d fetch stalls from the ICache-hit filter\n",
			res.FetchStallsICacheFilter)
	}
	if *selfchk > 0 || inj != nil {
		fmt.Printf("hardening   : %d selfcheck sweeps, %d violations, %d watchdog trips\n",
			res.Hardening.SelfCheckSweeps, res.Hardening.SelfCheckViolations,
			res.Hardening.WatchdogTrips)
	}
	if inj != nil {
		fmt.Printf("faults      : %d injected (%s, seed %d, from cycle %d, persistent %v)\n",
			inj.Injected, *injectF, *injectSeed, *injectAt, *injectPers)
	}
	if *stages {
		printStages(res)
	}
	if *flightRec > 0 || *flightOut != "" {
		// Watchdog trips and audit failures auto-dump into the result;
		// otherwise snapshot the ring as of the final cycle.
		dump := res.Flight
		if dump == nil {
			dump = sim.DumpFlight()
		}
		switch {
		case dump == nil:
			fmt.Fprintln(os.Stderr, "flight recorder: nothing recorded")
		case *flightOut != "":
			if err := writeFlight(*flightOut, dump); err != nil {
				fmt.Fprintln(os.Stderr, err)
				profStop()
				os.Exit(1)
			}
		case !res.Outcome.Completed():
			writeFlight("-", dump)
		}
	}
	if !res.Outcome.Completed() {
		fmt.Fprintf(os.Stderr, "run failed: %s", res.Outcome)
		if err := sim.Err(); err != nil {
			fmt.Fprintf(os.Stderr, ": %v", err)
		}
		fmt.Fprintln(os.Stderr)
		if res.Diag != "" {
			fmt.Fprint(os.Stderr, res.Diag)
		}
		profStop() // os.Exit skips deferred handlers
		os.Exit(1)
	}
}

// nopCloser wraps a writer the process must not close (stderr).
type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// openOut opens an output file for a trace ('-' = stderr, so traces can be
// separated from the statistics report on stdout).
func openOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopCloser{os.Stderr}, nil
	}
	return os.Create(path)
}

// writeFlight exports a flight-recorder dump as indented JSON ('-' =
// stderr, keeping it separable from the statistics report on stdout).
func writeFlight(path string, d *obs.FlightDump) error {
	f, err := openOut(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(d)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSeries exports the sampled time series: CSV when the filename says
// so, JSONL (with histogram trailer) otherwise.
func writeSeries(path string, s *obs.Series) error {
	if s == nil {
		return fmt.Errorf("no metric series recorded (measured phase shorter than the sampling interval?)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = s.WriteCSV(f)
	} else {
		err = s.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printStages renders the per-stage cycle-accounting counters: average
// structure occupancies plus the stall breakdown, the first place to look
// when asking where a configuration's cycles go.
func printStages(res pipeline.Result) {
	cyc := float64(res.Cycles)
	if cyc == 0 {
		cyc = 1
	}
	st := res.Stages
	fmt.Println("--- stage cycle accounting ---")
	fmt.Printf("fetchq occ  : %.2f avg entries\n", float64(st.FetchQOccupancy)/cyc)
	fmt.Printf("iq occ      : %.2f avg entries (%.2f data-ready)\n",
		float64(st.IQOccupancy)/cyc, float64(st.ReadyOccupancy)/cyc)
	fmt.Printf("rob occ     : %.2f avg entries\n", float64(st.ROBOccupancy)/cyc)
	fmt.Printf("exec inflt  : %.2f avg in-flight ops\n", float64(st.ExecInflight)/cyc)
	fmt.Printf("issue       : %.3f uops/cycle, %.1f%% idle cycles (IQ non-empty, nothing issued)\n",
		float64(st.IssuedUops)/cyc, 100*float64(st.IssueIdleCycles)/cyc)
	fmt.Printf("commit      : %.1f%% stall cycles (ROB non-empty, nothing committed)\n",
		100*float64(st.CommitStalls)/cyc)
	fmt.Printf("stall skip  : %d cycles fast-forwarded in %d spans (%.1f%% of cycles)\n",
		st.SkippedCycles, st.SkipSpans, 100*float64(st.SkippedCycles)/cyc)
}
