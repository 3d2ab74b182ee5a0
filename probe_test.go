package netfence

import (
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// TestTableRendering pins the aligned text tables byte for byte:
// FormatResults (nil entries skipped, "-" for an absent topology,
// attack or FCT) and the search's worst-found table.
func TestTableRendering(t *testing.T) {
	results := []*Result{
		{Scenario: "collusion", Defense: "netfence", Topology: "dumbbell", Attack: "flood", Seed: 1, Senders: 128,
			Deployed: 1, UserBps: 175_400, AttackerBps: 170_100, Ratio: 1.031, Jain: 0.998, Utilization: 0.97},
		nil,
		{Scenario: "fig8/25K", Defense: "fq", Seed: 12, Senders: 20, Deployed: 0.5,
			FCT: FCTSummary{Count: 15, Failed: 5, MeanSec: 66.72, Completion: 0.75}},
	}
	const wantResults = "" +
		"scenario   defense   topo      attack  seed  senders  deploy  user kbps  atk kbps  ratio  jain  util  fct(s)  compl\n" +
		"---------  --------  --------  ------  ----  -------  ------  ---------  --------  -----  ----  ----  ------  -----\n" +
		"collusion  netfence  dumbbell  flood   1     128      100%    175        170       1.03   1.00  97%   -       -    \n" +
		"fig8/25K   fq        -         -       12    20       50%     0          0         0.00   0.00  0%    66.72   75%  \n"
	if got := FormatResults(results); got != wantResults {
		t.Errorf("FormatResults:\n%s\nwant:\n%s", got, wantResults)
	}

	report := &SearchReport{Optimizer: "random", Budget: 8, Seed: 3, Rows: []SearchRow{
		{Defense: "netfence", Strategy: "onoff-sync", Attack: "onoff-sync:on=2", UserBps: 150_000, DefaultUserBps: 180_000,
			SuppressionBps: 30_000, BoundBps: 80_000, GapBps: 70_000, BoundHolds: true, Evals: 8, Worst: true},
		{Defense: "tva", Strategy: "flood", Attack: "flood", UserBps: 1_000, BoundBps: 80_000, GapBps: -79_000, Evals: 1},
	}}
	const wantReport = "" +
		"worst-found table (optimizer=random budget=8 seed=3; * = defense's worst strategy)\n" +
		"defense    strategy    worst attack     user kbps  default  suppress  floor  gap  holds  evals\n" +
		"---------  ----------  ---------------  ---------  -------  --------  -----  ---  -----  -----\n" +
		"netfence*  onoff-sync  onoff-sync:on=2  150        180      30        80     70   true   8    \n" +
		"tva        flood       flood            1          0        0         80     -79  false  1    \n"
	if got := report.Table(); got != wantReport {
		t.Errorf("SearchReport.Table:\n%s\nwant:\n%s", got, wantReport)
	}
}

// TestTimeseriesBuffersFollowTheRun pins the timeseries memory to the
// ticks a run has taken. Build allocates nothing per tick, so a 1 ns
// interval over the default 240 s (2.4e11 ticks) builds like any other;
// a Series read empties the shards' rows, so a run streamed segment by
// segment holds only its unmerged ticks; and a negative Duration is
// refused.
func TestTimeseriesBuffersFollowTheRun(t *testing.T) {
	sc := Scenario{
		Seed:     1,
		Topology: DumbbellSpec{Senders: 4, BottleneckBps: 800_000},
		Workloads: []Workload{
			LongTCP{Senders: []int{0, 1}},
			UDPFlood{Senders: []int{2, 3}, RateBps: 1_000_000},
		},
		Probes: []Probe{TimeseriesProbe{Interval: 1}},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := sc.Build()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	in.Stop()
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("Build with a 1 ns timeseries interval allocated %d MB", grew>>20)
	}

	sc.Probes = []Probe{TimeseriesProbe{Interval: 100 * Millisecond}}
	sc.Duration = 4 * Second
	if in, err = sc.Build(); err != nil {
		t.Fatal(err)
	}
	merged := 0
	for at := Second; at <= 3*Second; at += Second {
		in.Advance(at)
		n := len(in.Series())
		if n <= merged {
			t.Fatalf("at %v: %d samples, want more than %d", at, n, merged)
		}
		merged = n
		for sh, own := range in.env.byShard {
			if len(own.row) != 0 {
				t.Errorf("at %v: shard %d still buffers %d rates after a merge", at, sh, len(own.row))
			}
		}
		if len(in.env.tickTimes) != 0 || len(in.env.monFlags) != 0 {
			t.Errorf("at %v: %d tick instants and %d monitoring flags still buffered", at, len(in.env.tickTimes), len(in.env.monFlags))
		}
	}
	in.Stop()

	sc.Duration, sc.Warmup = -Second, -2*Second
	if _, err := sc.Build(); err == nil || !strings.Contains(err.Error(), "must not be negative") {
		t.Errorf("Build with a negative Duration: err = %v", err)
	}
}

// jain is the unweighted Jain's index (Σx)² / (n · Σx²), the reference
// the weighted probe arithmetic must reproduce at unit weights.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// unitJain runs jainWeighted with every weight 1.
func unitJain(xs []float64) float64 {
	ones := make([]float64, len(xs))
	for i := range ones {
		ones[i] = 1
	}
	return jainWeighted(xs, ones)
}

// TestFacadeJain checks the FairnessProbe's Result.Jain is Jain's index
// of the per-user goodputs the GoodputProbe reports.
func TestFacadeJain(t *testing.T) {
	if got := jain([]float64{1, 1, 1}); got != 1 {
		t.Fatalf("Jain = %v", got)
	}
	res, err := Scenario{
		Seed:     3,
		Topology: DumbbellSpec{Senders: 4, BottleneckBps: 800_000},
		Defense:  Defense("netfence"),
		Workloads: []Workload{
			LongTCP{Senders: []int{0, 1, 2}},
			UDPFlood{Senders: []int{3}, RateBps: 1_000_000},
		},
		Probes:   []Probe{GoodputProbe{}, FairnessProbe{}},
		Duration: 40 * Second,
		Warmup:   10 * Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UserRates) != 3 {
		t.Fatalf("%d user rates, want 3", len(res.UserRates))
	}
	for i, r := range res.UserRates {
		if r <= 0 {
			t.Fatalf("user %d goodput %.0f bps", i, r)
		}
	}
	if want := jain(res.UserRates); res.Jain != want {
		t.Fatalf("Result.Jain = %v, Jain(UserRates) = %v", res.Jain, want)
	}
	if res.Jain <= 1.0/3 || res.Jain > 1 {
		t.Fatalf("Jain = %v outside (1/n, 1]", res.Jain)
	}
}

func TestFCT(t *testing.T) {
	var f fctRecord
	f.add(Second, true)
	f.add(3*Second, true)
	f.add(0, false)
	s := f.summary()
	if s.Count != 2 || s.Failed != 1 {
		t.Fatalf("count=%d failed=%d", s.Count, s.Failed)
	}
	if s.MeanSec != 2 {
		t.Fatalf("mean = %v", s.MeanSec)
	}
	if math.Abs(s.Completion-2.0/3) > 1e-9 {
		t.Fatalf("ratio = %v", s.Completion)
	}
}

// TestFCTPercentile pins the ceil rank: the 95th percentile of n sorted
// samples is the ceil(0.95·n)-th, whatever order they arrived in.
func TestFCTPercentile(t *testing.T) {
	for _, c := range []struct{ n, rank int }{{1, 1}, {2, 2}, {19, 19}, {20, 19}, {21, 20}, {100, 95}} {
		var f fctRecord
		for _, i := range rand.New(rand.NewPCG(1, uint64(c.n))).Perm(c.n) {
			f.add(Time(i+1)*Millisecond, true)
		}
		if got, want := f.summary().P95Sec, (Time(c.rank) * Millisecond).Seconds(); got != want {
			t.Fatalf("n=%d: p95 = %v, want %v", c.n, got, want)
		}
	}
}

func TestFCTEmpty(t *testing.T) {
	var f fctRecord
	if s := f.summary(); s != (FCTSummary{Completion: 1}) {
		t.Fatalf("empty FCT summary = %+v", s)
	}
}

func TestJainKnownValues(t *testing.T) {
	if got := unitJain([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %v", got)
	}
	// One active out of four: index = 1/4.
	if got := unitJain([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("max unfairness: %v", got)
	}
	if got := unitJain(nil); got != 1 {
		t.Fatalf("empty: %v", got)
	}
}

// Property: Jain's index lies in [1/n, 1] and is scale-invariant.
func TestJainProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		allZero := true
		for i, v := range raw {
			xs[i] = float64(v)
			if v != 0 {
				allZero = false
			}
		}
		if allZero {
			return unitJain(xs) == 1
		}
		j := unitJain(xs)
		if j < 1/float64(len(xs))-1e-9 || j > 1+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7.5
		}
		return math.Abs(unitJain(scaled)-j) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedUnitBitwise is the property the scenario probes rest on
// when they run every meter through the weighted arithmetic: with all
// weights 1, jainWeighted and the weighted mean Σ totals / Σ weights
// give the unweighted results bit for bit — x/1 and 1·x are exact, Σ1
// counts exactly, and a fused multiply-add sees the same operands.
// Inputs mix zeros, subnormals, 1e12-scale values and ordinary rates.
func TestWeightedUnitBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	draw := func() float64 {
		switch rng.IntN(5) {
		case 0:
			return 0
		case 1:
			return math.SmallestNonzeroFloat64 * float64(1+rng.IntN(1<<20))
		case 2:
			return 1e12 * (1 + rng.Float64())
		case 3:
			return float64(rng.IntN(1 << 30))
		}
		return rng.Float64() * 1e6
	}
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, rng.IntN(64))
		ones := make([]float64, len(xs))
		for i := range xs {
			xs[i], ones[i] = draw(), 1
		}
		if got, want := jainWeighted(xs, ones), jain(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("xs=%v: jainWeighted = %v, Jain = %v", xs, got, want)
		}
		// The probes' per-sender rate is total/weight; their mean sums
		// the totals and the weights, where the unweighted mean divides
		// the same sum by n.
		var sum, wsum float64
		for i, x := range xs {
			if rate := x / ones[i]; math.Float64bits(rate) != math.Float64bits(x) {
				t.Fatalf("%v / 1 = %v", x, rate)
			}
			sum += x
			wsum += ones[i]
		}
		if len(xs) == 0 {
			continue
		}
		if mean, want := sum/wsum, sum/float64(len(xs)); math.Float64bits(mean) != math.Float64bits(want) {
			t.Fatalf("xs=%v: weighted mean = %v, unweighted = %v", xs, mean, want)
		}
	}
}
