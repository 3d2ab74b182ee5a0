// Command benchmark is the repository's benchmark ledger: four
// workloads driven only through public functions, seven gated
// end-to-end metrics, per-layer probes and a traced run. README.md in
// this directory is the manual; BENCHMARK.json at the repository root
// declares the names, units and bounds this program prints.
//
//	bash benchmark/run.sh --workload tiny-suite --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// logf writes a diagnostic to standard error; standard output carries
// only the metric tables and the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// metricDef names one metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the gated metrics, printed by every untraced run of
// every workload. Definitions are in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"events_per_s", "1/s"},
	{"cpu_ns_per_event", "ns"},
	{"allocs_per_event", "count"},
	{"live_heap_mb", "MB"},
	{"jobs_per_s", "1/s"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the metrics as a table and returns the result line's
// value. A declared metric without a value is a harness bug.
func report(title string, defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Printf("# %s\n", title)
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-44s %16.6g %s\n", d.Name, v, d.Unit)
	}
	if len(vals) != len(defs) {
		var extra []string
		for k := range vals {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return res, fmt.Errorf("measured but not declared: %s", strings.Join(extra, ", "))
	}
	return res, nil
}

func emit(res result) {
	raw, err := json.Marshal(res)
	if err != nil {
		logf("marshal result: %v", err)
		os.Exit(2)
	}
	fmt.Println(string(raw))
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty = all, measured then traced)")
		seed         = flag.Uint64("seed", 1, "workload seed: sets Scenario.Seed and the serve-jobs mix")
		seconds      = flag.Float64("seconds", 20, "how long the timed repetitions run")
		trace        = flag.Int("trace", 0, "1 = traced run: spans, CPU-profile layer shares and the per-layer probes")
		smoke        = flag.Bool("smoke", false, "run at ~1/50 size with one repetition (harness self-test)")
		aa           = flag.Int("aa", 0, "A/A mode: two alternating sets of N invocations per workload, compared against the bounds in BENCHMARK.json")
		aaOut        = flag.String("aa-out", "", "A/A mode: also write the comparison as JSON to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		logf("unexpected argument %q", flag.Arg(0))
		os.Exit(2)
	}
	// Two processors whatever the box has: the sharded workload runs two
	// shards, the service two workers, and rows stay comparable between
	// a 2-CPU and a larger machine.
	runtime.GOMAXPROCS(2)

	if *aa > 0 {
		// Without an explicit --seconds the A/A check uses the declared
		// run_seconds, as the driver does.
		explicit := 0.0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" {
				explicit = *seconds
			}
		})
		os.Exit(runAA(*aa, explicit, *aaOut))
	}
	sc := fullScale
	if *smoke {
		sc, *seconds = smokeScale, 0
	}
	m := machineInfo()
	logf("machine: %s, nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s",
		m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GOOS, m.GOARCH, m.Commit)

	names, traces := []string{*workloadName}, []int{*trace}
	if *workloadName == "" {
		names, traces = workloadNames, []int{0, 1}
	}
	ok := true
	for _, tr := range traces {
		for _, name := range names {
			var (
				res result
				err error
			)
			if tr == 0 {
				res, err = runMeasured(name, sc, *seed, *seconds)
			} else {
				res, err = runTraced(name, sc, *seed, *seconds)
			}
			if err != nil {
				logf("%s: %v", name, err)
				os.Exit(2)
			}
			emit(res)
			ok = ok && res.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}
