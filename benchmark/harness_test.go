package main

import (
	"bytes"
	"math"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
	"time"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestEstimators(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	// The three fastest of ten (ceil(10/4)).
	if got := fastQuarter(xs); !approx(got, 2) {
		t.Errorf("fastQuarter = %v, want 2", got)
	}
	if got := fastQuarter([]float64{5}); !approx(got, 5) {
		t.Errorf("fastQuarter of one sample = %v, want 5", got)
	}
	// A slow burst covering half the repetitions moves the median but
	// not the fast quarter: the property the estimator is chosen for.
	calm := []float64{1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01}
	burst := []float64{1.00, 1.01, 1.02, 1.00, 1.6, 1.7, 1.8, 1.9}
	if fastQuarter(calm) != fastQuarter(burst) {
		t.Errorf("fastQuarter moved under a slow burst: %v vs %v", fastQuarter(calm), fastQuarter(burst))
	}
	if median(calm) == median(burst) {
		t.Errorf("test input does not disturb the median")
	}
	if got := median(xs); !approx(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(xs, 1); !approx(got, 10) {
		t.Errorf("quantile(1) = %v, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs)
	if !approx(q1, 2.75) || !approx(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); !approx(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); !approx(q1, 1) || !approx(q3, 3) {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
}

// TestHostNoise checks the sentinel's two numbers: the level ignores a
// slow burst, as the time estimator does; the spread reports it.
func TestHostNoise(t *testing.T) {
	r := func(ms float64) hostReading { return hostReading{IntegerMS: ms / 4, MemoryMS: 3 * ms / 4} }
	level, pct := hostNoise([]hostReading{r(10), r(12), r(30), r(10), r(25), r(12), r(40), r(11)})
	if !approx(level, 10) || !approx(pct, 300) {
		t.Errorf("hostNoise = level %v ms, spread %v%%, want 10 ms, 300%%", level, pct)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "round", ID: 1, Parent: 0, Start: 0, End: 100 * ms},
		{Name: "job", ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{Name: "job", ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},  // overlaps span 2
		{Name: "job", ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms}, // outlives the parent
		{Name: "submit", ID: 5, Parent: 2, Start: 10 * ms, End: 15 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 50 * ms, // 100 - (10..50 = 40) - (90..100 = 10)
		2: 15 * ms,
		3: 30 * ms,
		4: 30 * ms,
		5: 5 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["job"] != 75*ms {
		t.Errorf("self time of all job spans = %v, want 75ms", byName["job"])
	}

	tr := newTracer()
	root := tr.begin("rep", 0, 7)
	child := tr.begin("run", root, 7)
	tr.end(child)
	open := tr.begin("never-closed", root, 7)
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[1].Op != 7 || open != 3 {
		t.Errorf("tracer snapshot = %+v", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 0, 0)) // the untraced run: no-ops
	if nilTracer.snapshot() != nil {
		t.Errorf("nil tracer recorded spans")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"netfence/internal/sim.(*Engine).fire":               "sim",
		"netfence/internal/sim.(*wheel).place":               "sim",
		"netfence/internal/sim.keyLess":                      "sim",
		"netfence/internal/sim.(*Coordinator).round":         "coord",
		"netfence/internal/netsim.(*Mailbox).Drain":          "coord",
		"netfence/internal/core.(*pipeWorker).clone":         "coord",
		"netfence/internal/netsim.(*Link).txDone":            "netsim",
		"netfence/internal/packet.(*Pool).Get":               "netsim",
		"netfence/internal/core.(*nfQueue).Enqueue":          "queues",
		"netfence/internal/aqm.(*RED).Enqueue":               "queues",
		"netfence/internal/cmac.(*CMAC).Sum":                 "crypto",
		"crypto/internal/fips140/aes.encryptBlockAsm":        "crypto",
		"netfence/internal/core.(*AccessRouter).police":      "access",
		"netfence/internal/ratelimit.(*LeakyLimiter).Submit": "access",
		"netfence/internal/transport.(*TCPSender).Receive":   "transport",
		"runtime.mallocgc":                                   "runtime",
		"sync.(*WaitGroup).Wait":                             "runtime",
		"encoding/json.Marshal":                              "other",
		"netfence.(*Instance).Run":                           "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	shares := layerShares(map[string]int64{"netfence/internal/sim.keyLess": 30, "runtime.mallocgc": 10})
	if !approx(shares["sim"], 75) || !approx(shares["runtime"], 25) || len(shares) != len(cpuLayers) {
		t.Errorf("layerShares = %v", shares)
	}
}

// burn keeps the CPU busy so a short profile has samples.
func burn(d time.Duration) uint64 {
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sentinelSink += burn(120 * time.Millisecond)
	pprof.StopCPUProfile()
	fns, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for fn, ns := range fns {
		if fn == "" {
			t.Errorf("empty function name in fold")
		}
		total += ns
	}
	// 100 Hz sampling over 120 ms of busy CPU: a few samples at least
	// on any box that delivers profiling signals at all.
	if total == 0 {
		t.Skip("the profile holds no samples")
	}
	if fns["netfence/benchmark.burn"] == 0 {
		t.Errorf("fold lacks the burning function: %v", fns)
	}
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Errorf("foldProfile accepted garbage")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every name and unit the program can print
// against the benchmark contract's character and count limits.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is missing or outside the contract's alphabet", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q is invalid or collides with a metric", w)
		}
		seen[w] = true
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name + " [" + d.Unit + "]"
	}
	sort.Strings(out)
	return out
}

// TestSmokeMatchesDeclaration is the two-way check: the workloads and
// the metrics (with units) printed by a smoke run of every workload,
// measured and traced, are exactly those BENCHMARK.json declares.
func TestSmokeMatchesDeclaration(t *testing.T) {
	decl, err := loadDeclaration("../" + declFile)
	if err != nil {
		t.Fatal(err)
	}
	declared := func(ms []declMetric) []string {
		defs := make([]metricDef, len(ms))
		for i, m := range ms {
			defs[i] = metricDef{m.Name, m.Unit}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
		return names(defs)
	}
	var wl []string
	for _, w := range decl.Workloads {
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(wl, workloadNames) {
		t.Fatalf("declared workloads %v, program workloads %v", wl, workloadNames)
	}
	// The contract's limits on a bound, and its mandatory set-up metric.
	hasSetup := false
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("end_to_end lacks setup_s [s], lower is better")
	}

	runtime.GOMAXPROCS(2)
	traceDir = t.TempDir()
	for _, w := range workloadNames {
		for trace, want := range [][]string{declared(decl.EndToEnd), declared(decl.PerLayer)} {
			var res result
			if trace == 0 {
				res, err = runMeasured(w, smokeScale, 1, 0)
			} else {
				res, err = runTraced(w, smokeScale, 1, 0)
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []metricDef
			for name, mv := range res.Metrics {
				got = append(got, metricDef{name, mv.Unit})
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s trace=%d: %s = %v", w, trace, name, mv.Value)
				}
				if trace == 0 && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, name, mv.Value)
				}
			}
			if g := names(got); !slices.Equal(g, want) {
				t.Errorf("%s trace=%d: printed metrics differ from %s\nprinted:  %v\ndeclared: %v", w, trace, declFile, g, want)
			}
		}
	}
}
