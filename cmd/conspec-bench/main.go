// Command conspec-bench regenerates the paper's evaluation artifacts:
//
//	-suite fig5     Figure 5  (normalized performance, 22 benchmarks)
//	-suite table4   Table IV  (security: attacks vs mechanisms)
//	-suite table5   Table V   (filter analysis)
//	-suite table6   Table VI  (A57/I7/Xeon sensitivity)
//	-suite scope    §VI.C(1)  (branch-only vs branch+memory matrix)
//	-suite lru      §VII.A    (secure replacement-update policies)
//	-suite icache   §VII.B    (ICache-hit filter extension)
//	-suite dtlb     extension (DTLB-hit filter)
//	-suite compare  extension (CH+TPBuf vs InvisiSpec-like vs LFENCE baseline)
//	-suite overhead §VI.E     (area/timing model)
//	-suite defenses extension (every registered defense backend: overhead vs V1 leak verdict)
//	-suite all      everything above
//
// Figure 5 and Table V come from the same runs and are always printed
// together. Use -benches to restrict to a comma-separated subset and
// -measure to change the per-run instruction budget.
//
// All suites submit their runs to one exp.Runner, which deduplicates
// identical (core, security, policy, workload, budget) simulations across
// suites — `-suite all` executes each unique run exactly once. SIGINT
// cancels the engine: completed suite results are flushed and the process
// exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"conspec/internal/buildinfo"
	"conspec/internal/diskcache"
	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/obs/trace"
	"conspec/internal/profutil"
)

func main() {
	var (
		suite    = flag.String("suite", "all", "fig5|table4|table5|table6|scope|lru|icache|dtlb|compare|overhead|defenses|all")
		benches  = flag.String("benches", "", "comma-separated benchmark subset (default: all 22)")
		defenses = flag.String("defenses", "", "comma-separated defense subset for -suite defenses (default: all registered; see conspec-sim -mech for names)")
		warmup   = flag.Uint64("warmup", 20_000, "warmup instructions per run")
		measure  = flag.Uint64("measure", 120_000, "measured instructions per run")
		interval = flag.Uint64("metrics-interval", 0, "sample the obs metric registry every N cycles of the measured phase; the -json fig5/table5 output then carries the per-run time series (0 = off)")
		selfchk  = flag.Uint64("selfcheck", 0, "audit pipeline and security invariants every N cycles of every run; a violation fails that run (0 = off)")
		runTmo   = flag.Duration("run-timeout", 0, "wall-clock bound per simulation; a run exceeding it is recorded as failed and its suite continues (0 = none)")
		cacheDir = flag.String("cache-dir", "", "persist memoized simulation results under this directory and reuse them across invocations (content-addressed, namespaced by build identity; a warm rerun executes zero simulations)")
		cacheMax = flag.Int64("cache-max-bytes", 0, "size budget for -cache-dir; least-recently-used entries are evicted past it (0 = unbounded)")
		workers  = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS); values below GOMAXPROCS also cap GOMAXPROCS so -workers 1 -cpuprofile profiles a single attributable thread")
		traceF   = flag.String("trace", "", "write a Chrome trace-event span trace of the whole invocation (suite > run > phase, with cache-tier annotations) to FILE; load it at https://ui.perfetto.dev")
		flight   = flag.Uint64("flight-window", 0, "arm each run's microarchitectural flight recorder over the last N cycles; failed runs report the dump (0 = off)")
		verbose  = flag.Bool("v", false, "print per-run progress")
		asJSON   = flag.Bool("json", false, "emit results as JSON instead of text")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	prof := profutil.Register()
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Short("conspec-bench"))
		return
	}
	suites, err := exp.SuitesNamed(*suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	profStop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer profStop()
	*workers = profutil.CapProcs(*workers)

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	var defNames []string
	if *defenses != "" {
		defNames = strings.Split(*defenses, ",")
	}
	spec := exp.DefaultSpec()
	spec.Warmup = *warmup
	spec.Measure = *measure
	spec.MetricsInterval = *interval
	spec.SelfCheck = *selfchk
	spec.FlightWindow = *flight

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var onEvent func(exp.ProgressEvent)
	if *verbose {
		onEvent = func(ev exp.ProgressEvent) {
			if ev.Line != "" {
				fmt.Fprintln(os.Stderr, ev.Line)
			}
		}
	}
	ropts := exp.RunnerOptions{Workers: *workers, OnEvent: onEvent, Timeout: *runTmo}
	var tracer *trace.Tracer
	if *traceF != "" {
		tracer = trace.New(0)
		ropts.Trace = tracer
	}
	if *cacheDir != "" {
		store, err := diskcache.OpenWith(*cacheDir, diskcache.Options{MaxBytes: *cacheMax})
		if err != nil {
			fatal(err)
		}
		ropts.Cache = store
	}
	runner := exp.NewRunner(ropts)
	opts := exp.Options{Spec: spec, Benches: names, Defenses: defNames}

	start := time.Now()

	rep := report.New()
	// fail flushes whatever completed and exits. On SIGINT the JSON
	// document holds every suite that finished before cancellation.
	fail := func(err error) {
		profStop() // os.Exit skips deferred handlers: flush profiles first
		writeTrace(*traceF, tracer)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted: flushing completed suite results")
			if *asJSON {
				rep.Finish(runner)
				emitJSON(rep)
			}
			printEngineStats(runner, start)
			os.Exit(1)
		}
		fatal(err)
	}

	for _, s := range suites {
		res, err := runner.RunSuite(ctx, s.ID, opts)
		if err != nil {
			fail(err)
		}
		if *asJSON {
			rep.AddSuite(res)
			continue
		}
		fmt.Println(s.Banner)
		fmt.Println(res.Text())
	}
	// Failed runs (deadlocks, audit violations, cycle caps, timeouts) were
	// excluded from the suite aggregates above; summarize them here and make
	// the process exit non-zero so CI notices degraded output.
	failed := runner.Errors()
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "%d run(s) failed and were excluded from the aggregates:\n", len(failed))
		for _, e := range failed {
			fmt.Fprintf(os.Stderr, "  [%s] %s / %s: %s\n", e.Suite, e.Benchmark, e.Mechanism, e.Outcome)
		}
	}
	if *asJSON {
		rep.Finish(runner)
		emitJSON(rep)
	}
	writeTrace(*traceF, tracer)
	printEngineStats(runner, start)
	if len(failed) > 0 {
		profStop()
		os.Exit(1)
	}
}

// writeTrace exports the invocation's span trace as Chrome trace-event
// JSON. A nil tracer (no -trace flag) is a no-op; export errors warn but do
// not fail the run, since the results on stdout are already complete.
func writeTrace(path string, tracer *trace.Tracer) {
	if tracer == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return
	}
	err = tracer.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %s (load at https://ui.perfetto.dev)\n", path)
}

// printEngineStats reports the scheduler's deduplication work and the wall
// time on stderr, next to the timing line the tool has always printed. The
// disk tier appears only when a -cache-dir is in play.
func printEngineStats(runner *exp.Runner, start time.Time) {
	st := runner.Stats()
	if st.Submitted() > 0 {
		line := fmt.Sprintf("engine: %d unique simulations, %d cache hits", st.Executed, st.Hits)
		if st.DiskHits > 0 {
			line += fmt.Sprintf(", %d disk hits", st.DiskHits)
		}
		fmt.Fprintf(os.Stderr, "%s (%d submitted)\n", line, st.Submitted())
	}
	fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start))
}

func emitJSON(rep *report.Report) {
	if err := rep.Encode(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
