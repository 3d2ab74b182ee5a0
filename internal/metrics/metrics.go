// Package metrics collects the quantities the paper's evaluation reports:
// file transfer times and completion ratios (Figure 8), per-sender
// throughput and the legitimate/attacker throughput ratio (Figures 9-11),
// Jain's fairness index, and link utilization.
package metrics

import (
	"math"
	"sort"

	"netfence/internal/sim"
)

// FCT records file-transfer completion times and failures.
type FCT struct {
	samples []sim.Time
	failed  int
}

// Add records one attempt.
func (f *FCT) Add(d sim.Time, ok bool) {
	if ok {
		f.samples = append(f.samples, d)
	} else {
		f.failed++
	}
}

// Merge folds another aggregate into f (sharded runs collect one FCT
// per shard and merge in shard order). Mean and percentiles are
// order-independent: the mean sums integers and Percentile sorts.
func (f *FCT) Merge(other *FCT) {
	f.samples = append(f.samples, other.samples...)
	f.failed += other.failed
}

// Count returns the number of successful transfers.
func (f *FCT) Count() int { return len(f.samples) }

// Failed returns the number of failed transfers.
func (f *FCT) Failed() int { return f.failed }

// CompletionRatio returns successes/(successes+failures), 1 when empty.
func (f *FCT) CompletionRatio() float64 {
	total := len(f.samples) + f.failed
	if total == 0 {
		return 1
	}
	return float64(len(f.samples)) / float64(total)
}

// Mean returns the mean completion time of successful transfers.
func (f *FCT) Mean() sim.Time {
	if len(f.samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, s := range f.samples {
		sum += s
	}
	return sum / sim.Time(len(f.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) completion time.
func (f *FCT) Percentile(p float64) sim.Time {
	if len(f.samples) == 0 {
		return 0
	}
	sorted := make([]sim.Time, len(f.samples))
	copy(sorted, f.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Jain computes Jain's fairness index (sum x)^2 / (n * sum x^2), the
// metric of §6.3.2; it is 1 when all values are equal and approaches 1/n
// under maximal unfairness. An empty or all-zero input yields 1.
func Jain(xs []float64) float64 {
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

// JainWeighted computes Jain's index over a population where xs[i] is
// one per-member value shared by ws[i] members: (Σ w·x)² / (Σw · Σ w·x²).
// With all weights 1 it performs exactly Jain's floating-point
// operations. A fleet-aggregated scenario's meter stands for N
// homogeneous senders.
func JainWeighted(xs, ws []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var wsum, sum, sq float64
	for i, x := range xs {
		w := ws[i]
		wsum += w
		sum += w * x
		sq += w * x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (wsum * sq)
}

// MeanStd returns the mean and population standard deviation.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
