// Command conspec-ctl is the CLI for a running conspec-served instance.
//
//	conspec-ctl -server http://127.0.0.1:8344 submit -suite fig5 -watch
//	conspec-ctl watch <job-id>
//	conspec-ctl get <job-id> > fig5.json
//	conspec-ctl list
//	conspec-ctl cancel <job-id>
//	conspec-ctl trace -o suite.trace.json <job-id>
//	conspec-ctl metrics
//	conspec-ctl workers
//	conspec-ctl workers drain w1
//
// submit prints the job id (or, with -watch, streams progress to stderr and
// prints the result JSON to stdout once done, exiting non-zero if the job
// fails). get prints the job document with the embedded result — the same
// shape conspec-bench -json emits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"conspec/internal/fleet"
	"conspec/internal/serve"
	"conspec/internal/serve/client"
)

func main() {
	server := flag.String("server", envOr("CONSPEC_SERVER", "http://127.0.0.1:8344"), "conspec-served base URL (env CONSPEC_SERVER)")
	retries := flag.Int("retries", client.DefaultRetry().MaxAttempts, "attempts per request on transient failures (connection refused, 429, 503); watch reconnects dropped streams with the same budget (1 = fail fast)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	c := client.New(*server)
	c.Retry = client.DefaultRetry()
	c.Retry.MaxAttempts = *retries
	c.Retry.OnRetry = func(attempt int, delay time.Duration, err error) {
		fmt.Fprintf(os.Stderr, "conspec-ctl: retrying in %s (attempt %d): %v\n", delay.Round(time.Millisecond), attempt, err)
	}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, c, args)
	case "watch":
		err = cmdWatch(ctx, c, args)
	case "get":
		err = cmdGet(ctx, c, args)
	case "list":
		err = cmdList(ctx, c)
	case "cancel":
		err = cmdCancel(ctx, c, args)
	case "trace":
		err = cmdTrace(ctx, c, args)
	case "metrics":
		err = cmdMetrics(ctx, c)
	case "workers":
		err = cmdWorkers(ctx, c, args)
	default:
		fmt.Fprintf(os.Stderr, "conspec-ctl: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "conspec-ctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: conspec-ctl [-server URL] <command> [args]

commands:
  submit -suite S [-benches a,b] [-defenses d,e] [-warmup N] [-measure N] [-run-timeout D]
         [-cancel-on-disconnect] [-watch]    queue a job
  watch  <job-id>                            stream a job's progress events
  get    <job-id>                            print the job (with result JSON)
  list                                       list jobs, newest first
  cancel <job-id>                            cancel a queued or running job
  trace  [-o FILE] <job-id>                  fetch the job's span trace (Perfetto JSON)
  metrics                                    dump the server's /metrics text
  workers                                    list fleet workers (coordinator only)
  workers drain <worker-id>                  stop leasing jobs to a worker
`)
	flag.PrintDefaults()
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		suite    = fs.String("suite", "all", "suite to run (fig5|table4|table5|table6|scope|lru|icache|dtlb|compare|overhead|defenses|all)")
		benches  = fs.String("benches", "", "comma-separated benchmark subset")
		defenses = fs.String("defenses", "", "comma-separated defense subset for the defenses suite")
		warmup   = fs.Uint64("warmup", 0, "warmup instructions per run (0 = server default)")
		measure  = fs.Uint64("measure", 0, "measured instructions per run (0 = server default)")
		interval = fs.Uint64("metrics-interval", 0, "metric sampling interval in cycles (0 = off)")
		selfchk  = fs.Uint64("selfcheck", 0, "invariant audit interval in cycles (0 = off)")
		runTmo   = fs.Duration("run-timeout", 0, "wall-clock bound per simulation (0 = server default)")
		workers  = fs.Int("workers", 0, "cap this job's concurrent simulations (0 = server default)")
		cod      = fs.Bool("cancel-on-disconnect", false, "cancel the job if its last watcher disconnects")
		flight   = fs.Uint64("flight-window", 0, "arm each run's flight recorder over the last N cycles (0 = off); failed runs carry the dump")
		watch    = fs.Bool("watch", false, "stream progress and print the result when done")
	)
	fs.Parse(args)
	spec := serve.JobSpec{
		Suite:              *suite,
		Warmup:             *warmup,
		Measure:            *measure,
		MetricsInterval:    *interval,
		SelfCheck:          *selfchk,
		RunTimeoutMS:       runTmo.Milliseconds(),
		Workers:            *workers,
		CancelOnDisconnect: *cod,
		FlightWindow:       *flight,
	}
	if *benches != "" {
		spec.Benches = strings.Split(*benches, ",")
	}
	if *defenses != "" {
		spec.Defenses = strings.Split(*defenses, ",")
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if !*watch {
		fmt.Println(st.ID)
		return nil
	}
	fmt.Fprintf(os.Stderr, "job %s queued\n", st.ID)
	return watchAndPrint(ctx, c, st.ID)
}

func cmdWatch(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: watch <job-id>")
	}
	return watchAndPrint(ctx, c, args[0])
}

// watchAndPrint streams progress lines to stderr and, when the job ends,
// prints the result document to stdout. A failed or canceled job is an
// error.
func watchAndPrint(ctx context.Context, c *client.Client, id string) error {
	err := c.Watch(ctx, id, func(ev serve.Event) error {
		switch ev.Type {
		case "state":
			fmt.Fprintf(os.Stderr, "[%s] %s%s\n", ev.Job, ev.Status, suffixIf(ev.Error))
		case "progress":
			if p := ev.Progress; p != nil {
				fmt.Fprintf(os.Stderr, "[%s] %s\n", ev.Job, p.String())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	st, err := c.Get(ctx, id)
	if err != nil {
		return err
	}
	if st.Status != serve.StatusDone {
		return fmt.Errorf("job %s: %s%s", id, st.Status, suffixIf(st.Error))
	}
	return printJSON(st.Result)
}

func suffixIf(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

func cmdGet(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: get <job-id>")
	}
	st, err := c.Get(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdList(ctx context.Context, c *client.Client) error {
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Fprintln(os.Stderr, "no jobs")
		return nil
	}
	for _, j := range jobs {
		age := time.Since(j.Created).Round(time.Second)
		recovered := ""
		if j.Recovered {
			recovered = "  [recovered]"
		}
		worker := ""
		if j.Worker != "" {
			worker = "  @" + j.Worker
		}
		fmt.Printf("%s  %-8s  %-8s  %4s ago%s%s%s\n", j.ID, j.Spec.Suite, j.Status, age, worker, recovered, suffixIf(j.Error))
	}
	return nil
}

// cmdWorkers lists the fleet ("workers") or drains one of its members
// ("workers drain <id>"). Standalone servers have no fleet and answer 404.
func cmdWorkers(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 2 && args[0] == "drain" {
		var w fleet.WorkerInfo
		if _, err := c.Call(ctx, http.MethodPost, "/fleet/v1/workers/"+args[1]+"/drain", nil, &w); err != nil {
			return err
		}
		fmt.Printf("%s draining (%d active leases to finish)\n", w.ID, w.Active)
		return nil
	}
	if len(args) != 0 {
		return fmt.Errorf("usage: workers [drain <worker-id>]")
	}
	var workers []fleet.WorkerInfo
	if _, err := c.Call(ctx, http.MethodGet, "/fleet/v1/workers", nil, &workers); err != nil {
		return err
	}
	if len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "no workers")
		return nil
	}
	for _, w := range workers {
		state := "up"
		switch {
		case w.Lost:
			state = "lost"
		case w.Draining:
			state = "draining"
		}
		fmt.Printf("%s  %-8s  %d/%d active  done %d  failed %d  last beat %s ago\n",
			w.ID, state, w.Active, w.Slots, w.Done, w.Failed, time.Since(w.LastBeat).Round(time.Second))
	}
	return nil
}

func cmdCancel(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cancel <job-id>")
	}
	st, err := c.Cancel(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Printf("%s %s\n", st.ID, st.Status)
	return nil
}

// cmdTrace downloads a job's span trace as Chrome trace-event JSON —
// loadable at https://ui.perfetto.dev — to stdout or -o FILE.
func cmdTrace(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "", "write the trace to FILE instead of stdout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: trace [-o FILE] <job-id>")
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return c.Trace(ctx, fs.Arg(0), w)
}

func cmdMetrics(ctx context.Context, c *client.Client) error {
	out, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
