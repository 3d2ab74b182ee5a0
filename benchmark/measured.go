package main

import (
	"fmt"
	"time"
)

// setupBurst bounds the set-up-only iterations after one repetition: at
// most this many, and none once they have taken setupBurstSeconds (a
// large build takes 50 ms, so it gets one; a tiny one takes 0.5 ms).
const (
	setupBurst        = 24
	setupBurstSeconds = 0.02
)

// repeat runs the discarded warm-up repetition and then timed
// repetitions for the given seconds (at least minReps of them). After
// every repetition it takes a burst of set-up-only samples, so that the
// set-up time is sampled over the whole invocation like the run time,
// not in one window at its end. The host-noise sentinel is read before
// the first repetition and after every one.
func repeat(w workload, seconds float64, minReps int) (cold repSample, reps []repSample, setups []float64, host []hostReading) {
	cold = w.rep(nil, 0)
	start := time.Now()
	host = append(host, senseHost())
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r := w.rep(nil, len(reps)+1)
		reps = append(reps, r)
		setups = append(setups, r.SetupS)
		for n, spent := 0, 0.0; n < setupBurst && spent < setupBurstSeconds; n++ {
			s := w.setupOnly()
			setups = append(setups, s)
			spent += s
		}
		host = append(host, senseHost())
	}
	return cold, reps, setups, host
}

func column(reps []repSample, f func(repSample) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEndValues turns the timed repetitions into the seven gated
// metrics. Times are the fastest-quarter mean over repetitions; counts
// are medians (they repeat to within a handful of runtime-internal
// allocations).
func endToEndValues(reps []repSample, setups []float64) map[string]float64 {
	events := float64(reps[0].Events)
	runS := fastQuarter(column(reps, func(r repSample) float64 { return r.RunS }))
	return map[string]float64{
		"setup_s":          fastQuarter(setups),
		"run_s":            runS,
		"events_per_s":     events / runS,
		"cpu_ns_per_event": 1e9 * fastQuarter(column(reps, func(r repSample) float64 { return r.CPUS })) / events,
		"allocs_per_event": median(column(reps, func(r repSample) float64 { return float64(r.Mallocs) })) / events,
		"live_heap_mb":     median(column(reps, func(r repSample) float64 { return r.LiveHeapMB })),
		"jobs_per_s":       float64(reps[0].Ops) / runS,
	}
}

// tally counts operations and failures over the warm-up and the timed
// repetitions.
func tally(cold repSample, reps []repSample) (attempted, failed int) {
	attempted, failed = cold.Ops, cold.Failed
	for _, r := range reps {
		attempted += r.Ops
		failed += r.Failed
	}
	return attempted, failed
}

// runMeasured is the untraced run: the end-to-end metrics of one
// workload.
func runMeasured(name string, sc scale, seed uint64, seconds float64) (result, error) {
	w, err := newWorkload(name, sc, seed)
	if err != nil {
		return result{}, err
	}
	if err := w.prepare(); err != nil {
		return result{}, err
	}
	cold, reps, setups, host := repeat(w, seconds, sc.minReps)
	hostNoise(host)

	attempted, failed := tally(cold, reps)
	logf("%s seed %d: %d repetitions, %d set-up samples, events %d, ops %d, failed_ops %d, sha256 %s",
		name, seed, len(reps), len(setups), reps[0].Events, attempted, failed, reps[0].SHA)
	title := fmt.Sprintf("%s seed=%d end-to-end (n=%d repetitions, %d operations)", name, seed, len(reps), attempted)
	return report(title, endToEnd, endToEndValues(reps, setups), attempted, failed)
}
