// Command netfence-sim regenerates the tables and figures of the
// NetFence paper's evaluation (§6) on the packet-level simulator, and
// runs declarative scenario sweeps across every registered defense.
//
// Figures:
//
//	netfence-sim -list
//	netfence-sim -exp fig9a -scale small
//	netfence-sim -exp fig8 -scale tiny -defense netfence,tva
//	netfence-sim -all -scale tiny
//
// Any comparison figure can be restricted to a subset of the registered
// defense systems with -defense (see -list-defenses).
//
// Scenario-matrix mode fans the paper's collusion scenario over a
// defenses × populations × deployment-fractions × seeds matrix, in
// parallel, one engine per cell, and prints a unified result table.
// -topo swaps the topology for any registered one (see
// -list-topologies): the classic dumbbell, the parking lot, the
// single-AS star hotspot, or the seeded random AS-level graph. -deploy
// sweeps partial deployment: each fraction deploys the defense on that
// share of source ASes, leaving the rest legacy (NetFence demotes their
// traffic to best-effort):
//
//	netfence-sim -sweep -defense netfence,tva,stopit,fq -seeds 1,2,3
//	netfence-sim -sweep -senders 20,40 -bottleneck 4000000 -duration 240
//	netfence-sim -sweep -topo random-as -deploy 0,0.5,1
//
// -attack swaps the static colluder flood for adaptive attack
// strategies (see -list-attacks) and sweeps them as an axis: each
// strategy decides per control tick how the attackers transmit, observes
// the returned congestion policing feedback, and may craft packet
// channels and presented feedback:
//
//	netfence-sim -sweep -attack flood,onoff-sync,replay,legacy-flood
//	netfence-sim -sweep -attack request-prio -defense netfence,tva
//
// Attack strategies expose tunable parameters (-list-attacks prints
// each strategy's ranges and defaults); a sweep axis entry may pin them
// with name:key=val,... syntax:
//
//	netfence-sim -sweep -attack onoff-sync:on=1,off=4,trickle_bps=10000
//
// -search replaces the hand-picked parameters with an adversarial
// search: per (defense × strategy) cell a deterministic seeded
// optimizer (-search-optimizer grid|anneal) hunts the parameter vector
// that minimizes legitimate goodput within -search-budget candidate
// evaluations, prints the worst-found table, optionally writes it as
// JSON (-search-out), and fails the run when NetFence falls below the
// Theorem-1 floor at a searched optimum:
//
//	netfence-sim -search -defense netfence,tva -attack flood,onoff-sync
//	netfence-sim -search -search-optimizer anneal -search-budget 32 -search-out worst.json
//
// Scales: tiny (seconds of wall time, CI), small (default, minutes),
// paper (the full 1000-sender, 4000-simulated-second configuration —
// expect a long run).
//
// -shards N partitions scenario topologies into N per-AS shards, one
// engine per shard, synchronized in lookahead windows with results
// byte-identical to the single engine for the deterministic workload
// set (-1 = one shard per CPU):
//
//	netfence-sim -sweep -shards 4 -senders 128
//	netfence-sim -sweep -topo random-as -senders 1024 -shards -1
//
// Performance is measured by the benchmark harness in benchmark/ (see
// BENCHMARK.json), not by this command.
//
// -cpuprofile and -memprofile write pprof profiles covering the run;
// shard worker goroutines carry pprof labels (shard=<as-range>) so
// profiles attribute hot paths to partitions.
//
// -serve starts the simulation service instead of a batch command: an
// HTTP API that accepts scenario and sweep jobs as JSON, runs them on
// a bounded worker pool, streams timeseries samples over SSE, and
// exposes a live control endpoint feeding mutations into running
// scenarios through the same code path scripted timelines use:
//
//	netfence-sim -serve -addr 127.0.0.1:8080
//	netfence-sim -serve -addr :0 -serve-workers 4 -serve-queue 32
//
// The first SIGINT/SIGTERM drains in-flight jobs gracefully (statuses
// stay readable during the drain); a second signal aborts running jobs
// at their next segment boundary, keeping partial results. Plain batch
// sweeps honor the same signals: completed cells are printed before
// the interrupt error surfaces.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netfence"
	"netfence/internal/attack"
	"netfence/internal/defense"
	"netfence/internal/exp"
	"netfence/internal/obs"
	"netfence/internal/server"
)

func main() {
	var (
		expName  = flag.String("exp", "", "experiment to run (see -list)")
		scale    = flag.String("scale", "small", "tiny | small | paper")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiments")
		listDef  = flag.Bool("list-defenses", false, "list registered defense systems")
		listTopo = flag.Bool("list-topologies", false, "list registered topologies")
		listAtk  = flag.Bool("list-attacks", false, "list registered attack strategies")
		listMet  = flag.Bool("list-metrics", false, "list the registered metric catalog (name, kind, plane, paper section, meaning)")
		defenses = flag.String("defense", "", "comma-separated defense systems (default: the paper's lineup)")

		metricsOut  = flag.String("metrics-out", "", "write the run's aggregated metrics as Prometheus text to this file (-exp, -sweep, -search, -trace)")
		tracePath   = flag.String("trace", "", "write the flight-recorder packet trace of a single scenario cell to this file (use with -sweep and single-valued axes)")
		traceFlows  = flag.Int("trace-flows", 8, "flows the flight recorder samples per traced run (deterministic seeded selection)")
		traceFormat = flag.String("trace-format", "json", "trace output format: json (event array) | chrome (trace_event for chrome://tracing)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = off")

		shards = flag.Int("shards", 1, "partition scenario topologies into this many per-AS shards, one engine per shard (1 = one engine, the one-shard case of the same build; -1 = one shard per CPU). Applies to -sweep, -search and -trace; the -exp figures build Scenarios but run them single-engine")

		pipelineFlag = flag.String("pipeline", "auto", "sharded validation pipeline: auto (on exactly when it pays — sharded NetFence with Passport verification) | on | off. Results are byte-identical in every mode; only wall-clock speed changes")

		serveMode    = flag.Bool("serve", false, "run the simulation service (HTTP job queue + SSE streaming + live control) instead of a batch command")
		addr         = flag.String("addr", "127.0.0.1:8080", "serve: listen address (use :0 for an ephemeral port)")
		serveWorkers = flag.Int("serve-workers", 2, "serve: jobs run concurrently")
		serveQueue   = flag.Int("serve-queue", 16, "serve: queued-job bound; past it POST /jobs answers 503")

		searchMode   = flag.Bool("search", false, "run the adversarial search instead of a figure: optimize attack parameters per (defense x strategy) cell for maximum damage and print the worst-found table")
		searchBudget = flag.Int("search-budget", 24, "search: candidate evaluations per (defense x strategy) cell")
		searchOpt    = flag.String("search-optimizer", "grid", "search: optimizer (grid | anneal)")
		searchSeed   = flag.Uint64("search-seed", 1, "search: optimizer RNG seed (the report is deterministic in it)")
		searchOut    = flag.String("search-out", "", "search: write the worst-found table as JSON to this file")

		sweep      = flag.Bool("sweep", false, "run the scenario-matrix sweep instead of a figure")
		progress   = flag.Bool("progress", false, "sweep: print per-cell completion progress to stderr")
		topoName   = flag.String("topo", "", "sweep: registered topology name (default: the paper's 9-colluder dumbbell)")
		seeds      = flag.String("seeds", "1", "sweep: comma-separated RNG seeds")
		senders    = flag.String("senders", "20", "sweep: comma-separated sender populations")
		deploy     = flag.String("deploy", "", "sweep: comma-separated deployed source-AS fractions in [0,1] (empty = full deployment)")
		attacks    = flag.String("attack", "", "sweep: comma-separated attack strategies driving the attacker side (empty = the static colluder flood; see -list-attacks)")
		bottleneck = flag.Int64("bottleneck", 4_000_000, "sweep: bottleneck capacity in bps (default dumbbell only; -topo topologies scale it per sender)")
		duration   = flag.Int("duration", 240, "sweep: simulated seconds per cell")
		parallel   = flag.Int("parallelism", 0, "sweep: concurrent cells (0 = GOMAXPROCS)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()

	pipe, err := netfence.ParsePipelineMode(*pipelineFlag)
	if err != nil {
		fatal(err)
	}
	cliPipeline = pipe

	// Profile teardown must survive every exit path — fatal() and the
	// search gate's os.Exit(1) bypass defers, so they flush explicitly
	// through the idempotent flushProfiles hook.
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

	if *list {
		for _, r := range exp.Runners() {
			fmt.Printf("%-18s %s\n", r.Name, r.Brief)
		}
		return
	}
	if *listDef {
		for _, name := range netfence.Defenses() {
			fmt.Println(name)
		}
		return
	}
	if *listTopo {
		for _, name := range netfence.Topologies() {
			fmt.Println(name)
		}
		return
	}
	if *listAtk {
		listAttacks()
		return
	}
	if *listMet {
		listMetrics()
		return
	}
	if *serveMode {
		runServe(*addr, *serveWorkers, *serveQueue)
		return
	}

	defenseList, err := parseDefenses(*defenses)
	if err != nil {
		fatal(err)
	}

	if *tracePath != "" {
		if !*sweep {
			fatal(fmt.Errorf("-trace rides on the -sweep scenario cell; add -sweep (with single-valued axes)"))
		}
		runTraced(defenseList, *topoName, *seeds, *senders, *attacks, *bottleneck, *duration, *shards,
			*tracePath, *traceFlows, *traceFormat, *metricsOut)
		return
	}

	if *searchMode {
		runSearch(defenseList, *topoName, *seeds, *senders, *attacks, *bottleneck, *duration, *parallel, *shards,
			*searchBudget, *searchOpt, *searchSeed, *searchOut, *progress, *metricsOut)
		return
	}

	if *sweep {
		attackList, err := parseAttacks(*attacks)
		if err != nil {
			fatal(err)
		}
		runSweep(defenseList, *topoName, *seeds, *senders, *deploy, attackList, *bottleneck, *duration, *parallel, *shards, *progress, *metricsOut)
		return
	}

	sc, err := exp.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	sc.Systems = defenseList
	meter := &netfence.Meter{}
	sc.Meter = meter

	var runners []exp.Runner
	switch {
	case *all:
		runners = exp.Runners()
	case *expName != "":
		r, err := exp.RunnerByName(*expName)
		if err != nil {
			fatal(err)
		}
		runners = []exp.Runner{r}
	default:
		flag.Usage()
		os.Exit(2)
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
	writeMetrics(*metricsOut, map[string]uint64{"sim_events_executed_total": meter.Total()})
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

// writeMetrics renders a metric map as Prometheus text to path;
// empty path is a no-op.
func writeMetrics(path string, counters map[string]uint64) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := obs.RenderPrometheus(f, counters); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// listMetrics prints the registered metric catalog, generated from the
// same registry the instrumentation compiles against.
func listMetrics() {
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
		fmt.Printf("%-32s %-9s %-13s %-7s %s\n", d.Name, kind, plane, d.Ref, d.Help)
	}
}

// runTraced runs the collusion scenario as one instrumented cell with
// the flight recorder on, prints the result, and writes the merged
// trace (and optionally the metric snapshot, runtime plane included).
func runTraced(defenseList []string, topoName, seedsCSV, sendersCSV, attacksCSV string, bottleneck int64, durationSec, shards int, tracePath string, traceFlows int, format, metricsOut string) {
	seedList, err := parseUints(seedsCSV)
	if err != nil {
		fatal(fmt.Errorf("-seeds: %w", err))
	}
	popList, err := parseInts(sendersCSV)
	if err != nil {
		fatal(fmt.Errorf("-senders: %w", err))
	}
	attackList, err := parseAttacks(attacksCSV)
	if err != nil {
		fatal(err)
	}
	if len(seedList) != 1 || len(popList) != 1 || len(defenseList) > 1 || len(attackList) > 1 {
		fatal(fmt.Errorf("-trace records exactly one cell: give single -seeds/-senders values and at most one -defense/-attack"))
	}
	def := "netfence"
	if len(defenseList) == 1 {
		def = defenseList[0]
	}
	meter := &netfence.Meter{}
	sc := collusionBaseFor(strings.ToLower(strings.TrimSpace(topoName)), bottleneck, durationSec, shards, len(attackList) > 0)(popList[0])
	sc.Name = "collusion-traced"
	sc.Seed = seedList[0]
	sc.Defense = netfence.Defense(def)
	sc.TraceFlows = traceFlows
	sc.Meter = meter
	if len(attackList) == 1 {
		name, params, err := netfence.ParseAttackSpec(attackList[0])
		if err != nil {
			fatal(err)
		}
		for i, w := range sc.Workloads {
			if as, ok := w.(netfence.AttackSpec); ok {
				as.Strategy, as.Params = name, params
				sc.Workloads[i] = as
			}
		}
	}
	in, err := sc.Build()
	if err != nil {
		fatal(err)
	}
	res := in.Run()
	fmt.Println(res.String())

	events := in.Trace()
	f, err := os.Create(tracePath)
	if err != nil {
		fatal(err)
	}
	switch format {
	case "chrome":
		err = obs.WriteChromeTrace(f, events)
	case "json":
		err = obs.WriteTraceJSON(f, events)
	default:
		f.Close()
		fatal(fmt.Errorf("unknown -trace-format %q (json|chrome)", format))
	}
	if err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d events, %d sampled flows)\n", tracePath, len(events), traceFlows)

	if metricsOut != "" {
		agg := map[string]uint64{}
		obs.MergeMap(agg, res.Counters)
		obs.MergeMap(agg, in.RuntimeCounters())
		writeMetrics(metricsOut, agg)
	}
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

// runSweep fans the paper's collusion scenario (25% long-TCP users, 75%
// colluder-bound attackers) over defenses × populations × deployment
// fractions × attacks × seeds, on the default dumbbell or any registered
// topology. Without -attack the attacker side is the classic static
// colluder flood; with it, the attackers are driven by each listed
// adaptive strategy in turn (the Sweep.Attacks axis).
func runSweep(defenseList []string, topoName, seedsCSV, sendersCSV, deployCSV string, attackList []string, bottleneck int64, durationSec, parallelism, shards int, showProgress bool, metricsOut string) {
	seedList, err := parseUints(seedsCSV)
	if err != nil {
		fatal(fmt.Errorf("-seeds: %w", err))
	}
	popList, err := parseInts(sendersCSV)
	if err != nil {
		fatal(fmt.Errorf("-senders: %w", err))
	}
	deployList, err := parseFloats(deployCSV)
	if err != nil {
		fatal(fmt.Errorf("-deploy: %w", err))
	}
	if len(defenseList) == 0 {
		defenseList = []string{"netfence", "tva", "stopit", "fq"}
	}
	// Mirror the registry's canonicalization so alternate spellings
	// ("ParkingLot") hit the parking-lot special case below. An unknown
	// name surfaces from the registry when the first cell builds, with
	// the registered-names message.
	topoName = strings.ToLower(strings.TrimSpace(topoName))

	meter := &netfence.Meter{}
	baseFor := collusionBaseFor(topoName, bottleneck, durationSec, shards, len(attackList) > 0)
	sw := netfence.Sweep{
		Base: netfence.Scenario{Name: "collusion"},
		// The role split depends on the population, so each population
		// cell rebuilds the scenario through BaseFor.
		BaseFor: func(pop int) netfence.Scenario {
			sc := baseFor(pop)
			sc.Meter = meter
			return sc
		},
		Defenses:        defenseList,
		Populations:     popList,
		DeployFractions: deployList,
		Attacks:         attackList,
		Seeds:           seedList,
		Parallelism:     parallelism,
	}
	if showProgress {
		sw.Progress = func(done, total int, cell string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, cell)
		}
	}

	// SIGINT/SIGTERM checkpoint the sweep: in-flight cells finish, the
	// completed results print, and the interrupt error surfaces last.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	results, err := sw.RunContext(ctx)
	// A failing cell must not throw away the completed cells' work:
	// print what finished, then the error.
	completed := 0
	for _, r := range results {
		if r != nil {
			completed++
		}
	}
	if completed > 0 {
		fmt.Print(netfence.FormatResults(results))
		fmt.Printf("\n(%d/%d cells, %.1fs wall)\n", completed, len(results), time.Since(start).Seconds())
	}
	if metricsOut != "" {
		agg := map[string]uint64{}
		for _, r := range results {
			if r != nil {
				obs.MergeMap(agg, r.Counters)
			}
		}
		agg["sim_events_executed_total"] = meter.Total()
		writeMetrics(metricsOut, agg)
	}
	if err != nil {
		fatal(err)
	}
}

// collusionBaseFor builds the population-parameterized base scenario
// shared by -sweep and -search: the paper's collusion mix (25%
// long-TCP users, 75% colluder-bound attackers) on the default
// dumbbell or any registered topology. useAttackSpec swaps the static
// colluder flood for an AttackSpec driven by the attack subsystem —
// the workload the Attacks axis re-targets and the search tunes.
func collusionBaseFor(topoName string, bottleneck int64, durationSec, shards int, useAttackSpec bool) func(pop int) netfence.Scenario {
	// collusionWorkloads splits a sender group 25% long-TCP users / 75%
	// colluder-bound attackers.
	collusionWorkloads := func(group, senders int) []netfence.Workload {
		users := senders / 4
		if users == 0 && senders > 0 {
			users = 1
		}
		atk := netfence.Workload(netfence.ColluderPairs{
			Group: group, Senders: netfence.Range(users, senders), RateBps: 1_000_000,
		})
		if useAttackSpec {
			atk = netfence.AttackSpec{
				Group: group, Senders: netfence.Range(users, senders),
				RateBps: 1_000_000, ToColluders: true,
			}
		}
		return []netfence.Workload{
			netfence.LongTCP{Group: group, Senders: netfence.Range(0, users)},
			atk,
		}
	}
	return func(pop int) netfence.Scenario {
		var spec netfence.TopologySpec
		var wl []netfence.Workload
		switch topoName {
		case "":
			spec = netfence.DumbbellSpec{Senders: pop, BottleneckBps: bottleneck, ColluderASes: 9}
			wl = collusionWorkloads(0, pop)
		case "parkinglot":
			// The parking lot splits the population over three
			// sender groups: round the requested population down to
			// a multiple of 3 and attach the collusion mix to each.
			if pop -= pop % 3; pop < 3 {
				pop = 3
			}
			spec = netfence.RegisteredTopology{Name: topoName, Population: pop}
			for g := 0; g < 3; g++ {
				wl = append(wl, collusionWorkloads(g, pop/3)...)
			}
		default:
			// Registered topologies own their scaling: the in-tree
			// defaults keep a 200 kbps per-sender fair share and
			// include colluder ASes.
			spec = netfence.RegisteredTopology{Name: topoName, Population: pop}
			wl = collusionWorkloads(0, pop)
		}
		return netfence.Scenario{
			Topology:  spec,
			Workloads: wl,
			Duration:  netfence.Time(durationSec) * netfence.Second,
			Shards:    shards, // -1 is netfence.AutoShards
			Pipeline:  cliPipeline,
		}
	}
}

// runSearch drives the adversarial search over the collusion scenario:
// per (defense × strategy) cell a seeded optimizer tunes the
// strategy's declared parameters for maximum legit-goodput
// suppression. The worst-found table prints as text (and JSON with
// -search-out); the run fails when NetFence falls below the Theorem-1
// floor at a searched optimum.
func runSearch(defenseList []string, topoName, seedsCSV, sendersCSV, attacksCSV string, bottleneck int64, durationSec, parallelism, shards, budget int, optimizer string, searchSeed uint64, outPath string, showProgress bool, metricsOut string) {
	seedList, err := parseUints(seedsCSV)
	if err != nil {
		fatal(fmt.Errorf("-seeds: %w", err))
	}
	popList, err := parseInts(sendersCSV)
	if err != nil {
		fatal(fmt.Errorf("-senders: %w", err))
	}
	// The search already sweeps (defense × strategy × candidate); a
	// multi-valued population or seed axis belongs to -sweep.
	if len(seedList) != 1 || len(popList) != 1 {
		fatal(fmt.Errorf("-search takes exactly one -seeds value and one -senders value (got %v, %v); use -sweep for axes", seedList, popList))
	}
	var strategies []string
	if strings.TrimSpace(attacksCSV) != "" {
		specs, err := attack.ParseSpecList(attacksCSV)
		if err != nil {
			fatal(err)
		}
		for _, s := range specs {
			if len(s.Params) > 0 {
				fatal(fmt.Errorf("-search tunes attack parameters itself; drop the overrides from %q (use -sweep to pin them)", s))
			}
			strategies = append(strategies, s.Strategy)
		}
	}
	if len(defenseList) == 0 {
		defenseList = []string{"netfence", "tva", "stopit", "fq"}
	}
	base := collusionBaseFor(strings.ToLower(strings.TrimSpace(topoName)), bottleneck, durationSec, shards, true)(popList[0])
	base.Name = "collusion"
	base.Seed = seedList[0]
	meter := &netfence.Meter{}
	base.Meter = meter

	spec := netfence.SearchSpec{
		Base:        base,
		Defenses:    defenseList,
		Strategies:  strategies,
		Optimizer:   optimizer,
		Budget:      budget,
		Seed:        searchSeed,
		Parallelism: parallelism,
	}
	if showProgress {
		spec.Progress = func(done, total int, cell string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, cell)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	rep, err := spec.RunContext(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Table())
	evals := 0
	for _, row := range rep.Rows {
		evals += row.Evals
	}
	fmt.Printf("\n(%d cells, %d candidates, %.1fs wall)\n", len(rep.Rows), evals, time.Since(start).Seconds())
	if outPath != "" {
		js, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(js, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	writeMetrics(metricsOut, map[string]uint64{"sim_events_executed_total": meter.Total()})
	if err := rep.Gate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flushProfiles()
		os.Exit(1)
	}
}

// listAttacks prints every registered strategy with its tunable
// parameter surface, generated from the registered ParamSpecs.
func listAttacks() {
	for _, name := range netfence.Attacks() {
		fmt.Println(name)
		specs, err := netfence.AttackParams(name)
		if err != nil {
			fatal(err)
		}
		for _, p := range specs {
			fmt.Printf("  %-12s %-6s [%v, %v]  default %v  %s\n",
				p.Name, p.Type(), p.Min, p.Max, p.Default, p.Desc)
		}
	}
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

// parseAttacks validates a comma-separated attack list — names or
// parameterized specs ("onoff-sync:on=1,off=4") — against the attack
// registry, returning canonical spec strings for the Sweep axis. A
// malformed spec fails fast with the strategy and offending key named.
func parseAttacks(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	specs, err := attack.ParseSpecList(csv)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.String()
	}
	return out, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func parseFloats(csv string) ([]float64, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseUints(csv string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// cliPipeline is the parsed -pipeline mode, applied to every
// scenario-driven cell the CLI builds (sweep, search, trace).
var cliPipeline netfence.PipelineMode

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
