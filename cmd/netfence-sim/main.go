// Command netfence-sim regenerates the tables and figures of the
// NetFence paper's evaluation (§6) on the packet-level simulator, runs
// job specs — a scenario, a sweep or an adversarial search, in the JSON
// form the simulation service accepts — and serves that service.
//
//	netfence-sim -list experiments    # or defenses, topologies, attacks, metrics
//	netfence-sim -exp fig9a -scale small
//	netfence-sim -exp fig8 -scale tiny -defense netfence,tva
//	netfence-sim -all -scale tiny
//
// -defense restricts a comparison figure to some registered defenses.
// Scales: tiny (seconds of wall time, CI), small (default, minutes),
// paper (the full 1000-sender, 4000-simulated-second configuration).
//
// -spec FILE decodes a JobSpec strictly and validates it exactly as
// POST /jobs does, then runs it in-process. examples/specs holds five,
// on the paper's collusion scenario (25% long-TCP users, 75%
// colluder-bound attackers, 20-sender dumbbell):
//
//	netfence-sim -spec examples/specs/sweep.json     # × NetFence, TVA+, StopIt, FQ
//	netfence-sim -spec examples/specs/search.json    # adversarial search per defense × strategy
//	netfence-sim -spec examples/specs/trace.json -trace trace.json
//	netfence-sim -spec examples/specs/ci-trace.json -trace trace.json -trace-flows 4 -metrics-out metrics.prom
//	netfence-sim -spec examples/specs/ci-search.json -out worstfound.json
//
// A scenario job prints its result line, a sweep the result table (a
// SIGINT/SIGTERM checkpoints it: in-flight cells finish, completed ones
// print, the interrupt error surfaces last), and a search the
// worst-found table, exiting 1 when NetFence falls below the Theorem-1
// floor at a searched optimum. -out writes the job's result JSON,
// -metrics-out its counters, -progress a sweep's or search's cells to
// stderr, and -trace a scenario job's flight-recorder trace. Everything
// else — shards, pipeline, axes, optimizer — is in the spec.
// pause_at_sec is refused, since nothing could resume the job, and
// stream_interval_sec does nothing: segmentation never changes a Result.
//
// -serve runs the simulation service: an HTTP API that queues the same
// job specs on a bounded worker pool, streams timeseries samples over
// SSE, and feeds live mutations into running scenarios through the code
// path scripted timelines use. The first SIGINT/SIGTERM drains it; a
// second aborts running jobs at their next segment boundary.
//
//	netfence-sim -serve -addr 127.0.0.1:8080 -serve-workers 4 -serve-queue 32
//
// Performance is measured by the benchmark harness in benchmark/, not
// by this command. -cpuprofile and -memprofile profile the run; shard
// goroutines carry pprof labels (shard=<as-range>).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"netfence"
	"netfence/internal/defense"
	"netfence/internal/exp"
	"netfence/internal/obs"
	"netfence/internal/server"
)

func main() {
	var (
		expName  = flag.String("exp", "", "experiment to run (see -list experiments)")
		scale    = flag.String("scale", "small", "-exp: tiny | small | paper")
		all      = flag.Bool("all", false, "run every experiment")
		defenses = flag.String("defense", "", "-exp: comma-separated defense systems (default: the paper's lineup)")
		list     = flag.String("list", "", "list what is registered: experiments | defenses | topologies | attacks | metrics")

		specPath    = flag.String("spec", "", "run the JSON job spec (scenario, sweep or search, as POST /jobs takes it) in this file")
		outPath     = flag.String("out", "", "-spec: write the job's result JSON to this file")
		progress    = flag.Bool("progress", false, "-spec: print per-cell progress of a sweep or search to stderr")
		tracePath   = flag.String("trace", "", "-spec: write a scenario job's flight-recorder packet trace to this file")
		traceFlows  = flag.Int("trace-flows", 8, "-trace: flows the flight recorder samples (deterministic seeded selection)")
		traceFormat = flag.String("trace-format", "json", "-trace: json (event array) | chrome (trace_event for chrome://tracing)")
		metricsOut  = flag.String("metrics-out", "", "write the run's aggregated metrics as Prometheus text to this file (-exp, -spec)")

		serveMode    = flag.Bool("serve", false, "run the simulation service (HTTP job queue + SSE streaming + live control) instead of a batch command")
		addr         = flag.String("addr", "127.0.0.1:8080", "serve: listen address (use :0 for an ephemeral port)")
		serveWorkers = flag.Int("serve-workers", 2, "serve: jobs run concurrently")
		serveQueue   = flag.Int("serve-queue", 16, "serve: queued-job bound; past it POST /jobs answers 503")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = off")
	)
	flag.Parse()

	// Profile teardown must survive every exit path — fatal() and the
	// search gate's exit bypass defers, so they flush explicitly through
	// the idempotent flushProfiles hook.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		prev := profileFinalizers
		profileFinalizers = func() {
			pprof.StopCPUProfile()
			f.Close()
			prev()
		}
	}
	if *memProfile != "" {
		path := *memProfile
		prev := profileFinalizers
		profileFinalizers = func() {
			f, err := os.Create(path)
			if err == nil {
				runtime.GC()
				pprof.Lookup("allocs").WriteTo(f, 0)
				f.Close()
			}
			prev()
		}
	}
	defer flushProfiles()

	// Opt-in pprof surface, on an explicit mux so nothing else rides on
	// http.DefaultServeMux. Works in every mode, -serve included.
	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}

	switch {
	case *list != "":
		if err := listRegistered(os.Stdout, *list); err != nil {
			fatal(err)
		}
	case *serveMode:
		runServe(*addr, *serveWorkers, *serveQueue)
	case *specPath != "":
		err := runSpec(os.Stdout, *specPath, specOutputs{
			out: *outPath, metrics: *metricsOut, progress: *progress,
			trace: *tracePath, traceFormat: *traceFormat, traceFlows: *traceFlows,
		})
		if errors.As(err, new(gateFailure)) {
			fmt.Fprintln(os.Stderr, err)
			flushProfiles()
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
	case *all:
		runExperiments("", *scale, *defenses, *metricsOut)
	case *expName != "":
		runExperiments(*expName, *scale, *defenses, *metricsOut)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runExperiments runs the named figure runner ("" = every one) at a
// scale and prints each table.
func runExperiments(name, scale, defenses, metricsOut string) {
	defenseList, err := parseDefenses(defenses)
	if err != nil {
		fatal(err)
	}
	sc, err := exp.ScaleByName(scale)
	if err != nil {
		fatal(err)
	}
	sc.Systems = defenseList
	meter := &netfence.Meter{}
	sc.Meter = meter

	runners := exp.Runners()
	if name != "" {
		r, err := exp.RunnerByName(name)
		if err != nil {
			fatal(err)
		}
		runners = []exp.Runner{r}
	}
	for _, r := range runners {
		if len(defenseList) > 0 && !r.Compares {
			fmt.Fprintf(os.Stderr, "warning: %s is a NetFence-only study; -defense ignored\n", r.Name)
		}
		start := time.Now()
		res := r.Run(sc)
		fmt.Println(res.Table())
		fmt.Printf("(%s, scale=%s, %.1fs wall)\n\n", r.Name, sc.Name, time.Since(start).Seconds())
	}
	// The -exp figures run their Scenarios on the scale's meter; its
	// event total is the metric they surface.
	if err := writeMetrics(metricsOut, map[string]uint64{"sim_events_executed_total": meter.Total()}); err != nil {
		fatal(err)
	}
}

// specOutputs is where a -spec run writes besides stdout.
type specOutputs struct {
	out, metrics       string // -out, -metrics-out
	progress           bool
	trace, traceFormat string
	traceFlows         int
}

// gateFailure is a search that ran to completion but whose report fails
// its Theorem-1 gate: the command exits 1, not 2.
type gateFailure struct{ error }

// runSpec runs the job spec in path in-process. It decodes and
// validates the spec as POST /jobs does, converts it with the spec's own
// Scenario, Sweep or Search, runs it, and prints the result to w.
func runSpec(w io.Writer, path string, o specOutputs) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	spec, err := server.DecodeSpec(f)
	f.Close()
	if err == nil {
		err = server.Validate(spec)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.PauseAtSec) > 0 {
		return fmt.Errorf("%s: pause_at_sec needs the service's control endpoint to resume the job; submit it to -serve", path)
	}
	if o.trace != "" {
		if spec.Scenario == nil {
			return fmt.Errorf("-trace records one scenario; %s holds a sweep or search job", path)
		}
		if o.traceFormat != "json" && o.traceFormat != "chrome" {
			return fmt.Errorf("unknown -trace-format %q (json|chrome)", o.traceFormat)
		}
	}

	// SIGINT/SIGTERM checkpoint a sweep: in-flight cells finish, the
	// completed results print, and the interrupt error surfaces last.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var progress func(done, total int, cell string)
	if o.progress {
		progress = func(done, total int, cell string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, cell)
		}
	}
	meter := &netfence.Meter{}
	start := time.Now()
	switch {
	case spec.Scenario != nil:
		sc, err := spec.Scenario.Scenario()
		if err != nil {
			return err
		}
		if o.trace != "" {
			sc.TraceFlows = o.traceFlows
		}
		in, err := sc.Build()
		if err != nil {
			return err
		}
		res := in.Run()
		fmt.Fprintln(w, res.String())
		err = writeFile(o.trace, func(w io.Writer) error {
			if o.traceFormat == "chrome" {
				return obs.WriteChromeTrace(w, in.Trace())
			}
			return obs.WriteTraceJSON(w, in.Trace())
		})
		if err != nil {
			return err
		}
		counters := map[string]uint64{}
		obs.MergeMap(counters, res.Counters)
		obs.MergeMap(counters, in.RuntimeCounters())
		return errors.Join(o.writeOut(json.Marshal(res)), writeMetrics(o.metrics, counters))

	case spec.Sweep != nil:
		sw, err := spec.Sweep.Sweep()
		if err != nil {
			return err
		}
		sw.Base.Meter = meter
		sw.Progress = progress
		results, err := sw.RunContext(ctx)
		// A failing cell must not throw away the completed cells' work:
		// print what finished, then the error.
		completed := 0
		counters := map[string]uint64{}
		for _, r := range results {
			if r != nil {
				completed++
				obs.MergeMap(counters, r.Counters)
			}
		}
		if completed > 0 {
			fmt.Fprint(w, netfence.FormatResults(results))
			fmt.Fprintf(w, "\n(%d/%d cells, %.1fs wall)\n", completed, len(results), time.Since(start).Seconds())
		}
		counters["sim_events_executed_total"] = meter.Total()
		return errors.Join(err, o.writeOut(json.Marshal(results)), writeMetrics(o.metrics, counters))

	default:
		sp, err := spec.Search.Search()
		if err != nil {
			return err
		}
		sp.Base.Meter = meter
		sp.Progress = progress
		rep, err := sp.RunContext(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(w, rep.Table())
		evals := 0
		for _, row := range rep.Rows {
			evals += row.Evals
		}
		fmt.Fprintf(w, "\n(%d cells, %d candidates, %.1fs wall)\n", len(rep.Rows), evals, time.Since(start).Seconds())
		counters := map[string]uint64{"sim_events_executed_total": meter.Total()}
		if err := errors.Join(o.writeOut(rep.JSON()), writeMetrics(o.metrics, counters)); err != nil {
			return err
		}
		if err := rep.Gate(); err != nil {
			return gateFailure{err}
		}
		return nil
	}
}

// writeOut writes a job's marshalled result, newline-terminated, to
// -out; with no -out it does nothing.
func (o specOutputs) writeOut(js []byte, err error) error {
	if err != nil && o.out != "" {
		return err
	}
	return writeFile(o.out, func(w io.Writer) error {
		_, err := w.Write(append(js, '\n'))
		return err
	})
}

// writeMetrics renders a metric map as Prometheus text to path.
func writeMetrics(path string, counters map[string]uint64) error {
	return writeFile(path, func(w io.Writer) error { return obs.RenderPrometheus(w, counters) })
}

// writeFile writes what write produces to path and notes it on stderr;
// an empty path writes nothing.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(write(f), f.Close()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// startPprof serves net/http/pprof on an explicit mux at addr.
func startPprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "netfence-sim: pprof on http://%s/debug/pprof/\n", ln.Addr())
	go http.Serve(ln, mux) //nolint:errcheck — best-effort debug listener
}

// runServe runs the simulation service until a signal arrives. The
// first SIGINT/SIGTERM starts a graceful drain — no new submissions,
// queued jobs cancelled, running jobs allowed to finish, statuses
// readable throughout; a second signal aborts the running jobs at
// their next segment boundary, flushing whatever partial state they
// accumulated.
func runServe(addr string, workers, queueDepth int) {
	s := server.New(server.Config{Addr: addr, Workers: workers, QueueDepth: queueDepth})
	if err := s.Start(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "netfence-sim: serving on http://%s (%d workers, queue %d)\n",
		s.Addr(), workers, queueDepth)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	fmt.Fprintln(os.Stderr, "netfence-sim: draining in-flight jobs (signal again to abort them)")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "netfence-sim: aborting running jobs")
		cancel()
	}()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// listRegistered prints one registry: the figure runners, defenses,
// topologies, attack strategies with their tunable parameters, or the
// metric catalog (name, kind, plane, paper section, meaning).
func listRegistered(w io.Writer, what string) error {
	switch what {
	case "experiments":
		for _, r := range exp.Runners() {
			fmt.Fprintf(w, "%-18s %s\n", r.Name, r.Brief)
		}
	case "defenses":
		fmt.Fprintln(w, strings.Join(netfence.Defenses(), "\n"))
	case "topologies":
		fmt.Fprintln(w, strings.Join(netfence.Topologies(), "\n"))
	case "attacks":
		for _, name := range netfence.Attacks() {
			fmt.Fprintln(w, name)
			specs, err := netfence.AttackParams(name)
			if err != nil {
				return err
			}
			for _, p := range specs {
				fmt.Fprintf(w, "  %-12s %-6s [%v, %v]  default %v  %s\n",
					p.Name, p.Type(), p.Min, p.Max, p.Default, p.Desc)
			}
		}
	case "metrics":
		for _, d := range netfence.Metrics() {
			kind := "counter"
			switch d.Kind {
			case obs.Gauge:
				kind = "gauge"
			case obs.Histogram:
				kind = "histogram"
			}
			plane := "deterministic"
			if d.Runtime {
				plane = "runtime"
			}
			fmt.Fprintf(w, "%-32s %-9s %-13s %-7s %s\n", d.Name, kind, plane, d.Ref, d.Help)
		}
	default:
		return fmt.Errorf("unknown -list %q (experiments|defenses|topologies|attacks|metrics)", what)
	}
	return nil
}

// parseDefenses validates a comma-separated defense list against the
// registry.
func parseDefenses(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	registered := map[string]bool{}
	for _, n := range netfence.Defenses() {
		registered[n] = true
	}
	var out []string
	for _, f := range strings.Split(csv, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			continue
		}
		canonical := defense.Canonical(name)
		if !registered[canonical] {
			return nil, fmt.Errorf("unknown defense %q (registered: %s)",
				name, strings.Join(netfence.Defenses(), ", "))
		}
		out = append(out, canonical)
	}
	return out, nil
}

// profileFinalizers chains the -cpuprofile/-memprofile teardown;
// flushProfiles runs it exactly once, on normal return or before any
// explicit os.Exit (which would bypass defers and truncate the profiles).
var (
	profileFinalizers = func() {}
	profilesFlushed   bool
)

func flushProfiles() {
	if profilesFlushed {
		return
	}
	profilesFlushed = true
	profileFinalizers()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	flushProfiles()
	os.Exit(2)
}
