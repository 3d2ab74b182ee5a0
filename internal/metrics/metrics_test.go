package metrics

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netfence/internal/sim"
)

func TestFCT(t *testing.T) {
	var f FCT
	f.Add(sim.Second, true)
	f.Add(3*sim.Second, true)
	f.Add(0, false)
	if f.Count() != 2 || f.Failed() != 1 {
		t.Fatalf("count=%d failed=%d", f.Count(), f.Failed())
	}
	if f.Mean() != 2*sim.Second {
		t.Fatalf("mean = %v", f.Mean())
	}
	if r := f.CompletionRatio(); math.Abs(r-2.0/3) > 1e-9 {
		t.Fatalf("ratio = %v", r)
	}
}

func TestFCTPercentile(t *testing.T) {
	var f FCT
	for i := 1; i <= 100; i++ {
		f.Add(sim.Time(i)*sim.Millisecond, true)
	}
	if got := f.Percentile(50); got != 50*sim.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := f.Percentile(99); got != 99*sim.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := f.Percentile(100); got != 100*sim.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
}

func TestFCTEmpty(t *testing.T) {
	var f FCT
	if f.Mean() != 0 || f.Percentile(50) != 0 || f.CompletionRatio() != 1 {
		t.Fatal("empty FCT misbehaves")
	}
}

func TestJainKnownValues(t *testing.T) {
	if got := Jain([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %v", got)
	}
	// One active out of four: index = 1/4.
	if got := Jain([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("max unfairness: %v", got)
	}
	if got := Jain(nil); got != 1 {
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
			return Jain(xs) == 1
		}
		j := Jain(xs)
		if j < 1/float64(len(xs))-1e-9 || j > 1+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7.5
		}
		return math.Abs(Jain(scaled)-j) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || s != 2 {
		t.Fatalf("mean=%v std=%v", m, s)
	}
	m, s = MeanStd(nil)
	if m != 0 || s != 0 {
		t.Fatal("empty MeanStd")
	}
}

// TestWeightedUnitBitwise is the property the scenario probes rest on
// when they run every meter through the weighted arithmetic: with all
// weights 1, JainWeighted and the weighted mean Σ totals / Σ weights
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
		if got, want := JainWeighted(xs, ones), Jain(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("xs=%v: JainWeighted = %v, Jain = %v", xs, got, want)
		}
		// The probes' per-sender rate is total/weight; their mean sums
		// the totals and the weights.
		var sum, wsum, mean float64
		for i, x := range xs {
			if rate := x / ones[i]; math.Float64bits(rate) != math.Float64bits(x) {
				t.Fatalf("%v / 1 = %v", x, rate)
			}
			sum += x
			wsum += ones[i]
		}
		if wsum > 0 {
			mean = sum / wsum
		}
		if want, _ := MeanStd(xs); math.Float64bits(mean) != math.Float64bits(want) {
			t.Fatalf("xs=%v: weighted mean = %v, MeanStd = %v", xs, mean, want)
		}
	}
}
