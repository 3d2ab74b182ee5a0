package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// traceDir is where a traced run leaves its chrome trace_event file,
// relative to the working directory (the repository root). The harness
// tests point it at a temporary directory.
var traceDir = "benchmark/out"

// runTraced is the traced run, separate from the measured one. It has
// two parts. First, for a third of --seconds, the asked workload,
// repetitions alternating between plain and traced — spans around every
// call into a layer, a CPU profile folded into layer shares — so that
// the tracing overhead is the ratio of two interleaved samples. Then the
// probe suite, the same for every workload, which fills the per-layer
// rows (about 17 s on the design box).
func runTraced(name string, sc scale, seed uint64, seconds float64) (result, error) {
	w, err := newWorkload(name, sc, seed)
	if err != nil {
		return result{}, err
	}
	if err := w.prepare(); err != nil {
		return result{}, err
	}
	l := &ledger{div: sc.probeDiv, vals: map[string]float64{}}
	host := []hostReading{senseHost()}

	tr := newTracer()
	byFunc := map[string]int64{}
	cold := w.rep(nil, 0)
	var plain, traced []repSample
	for start := time.Now(); len(plain) < sc.minReps || time.Since(start).Seconds() < seconds/3; {
		plain = append(plain, w.rep(nil, 2*len(plain)+1))
		host = append(host, senseHost())

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		s := w.rep(tr, 2*len(traced)+2)
		pprof.StopCPUProfile()
		traced = append(traced, s)
		host = append(host, senseHost())
		fns, err := foldProfile(prof.Bytes())
		if err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		for fn, ns := range fns {
			byFunc[fn] += ns
		}
	}
	attempted, failed := tally(cold, append(append([]repSample(nil), plain...), traced...))

	runS := func(reps []repSample) float64 {
		return fastQuarter(column(reps, func(r repSample) float64 { return r.RunS }))
	}
	l.set("scenario.cold_run_s", cold.RunS)
	l.set("trace.overhead_pct", 100*(runS(traced)/runS(plain)-1))
	for layer, pct := range layerShares(byFunc) {
		l.set("cpu_share."+layer, pct)
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	var rootSelf []float64
	for _, s := range spans {
		if s.Parent == 0 {
			rootSelf = append(rootSelf, float64(self[s.ID].Nanoseconds())/1e6)
		}
	}
	l.set("trace.spans", float64(len(spans)))
	l.set("trace.harness_self_ms", median(rootSelf))
	path := filepath.Join(traceDir, "trace-"+name+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	printSelfTimes(name, spans)
	logf("%s seed %d: traced %d of %d repetitions, %d spans written to %s", name, seed, len(traced), len(plain)+len(traced), len(spans), path)

	// The probe suite.
	for _, probe := range []func(*ledger, scale, uint64) (ops, failed int){probeScenario, probeShards, probeServer} {
		ops, bad := probe(l, sc, seed)
		attempted, failed = attempted+ops, failed+bad
	}
	probeSim(l, seed)
	probeCoord(l, seed)
	probeNetsim(l, sc, seed)
	probeQueues(l, seed)
	probeCrypto(l, seed)
	probeAccess(l, seed)
	probeCodec(l, seed)
	probeExtras(l, sc, seed)
	// The zero-allocation paths: a stray runtime-internal allocation
	// during the loop shows as ~1e-5 per operation, a real one as >= 1.
	if l.vals["netsim.forward_allocs"] >= 0.01 || l.vals["core.access_request_allocs"] >= 0.01 {
		logf("allocation on a zero-allocation path: netsim.forward_allocs %g, core.access_request_allocs %g",
			l.vals["netsim.forward_allocs"], l.vals["core.access_request_allocs"])
		attempted, failed = attempted+1, failed+1
	}

	host = append(host, senseHost())
	level, spreadPct := hostNoise(host)
	l.set("host.calib_ms", level)
	l.set("host.calib_spread_pct", spreadPct)
	title := fmt.Sprintf("%s seed=%d per-layer (traced run)", name, seed)
	return report(title, perLayer, l.vals, attempted, failed)
}

// printSelfTimes prints where the traced repetitions' wall time went:
// per span name, the summed self time (span minus children).
func printSelfTimes(name string, spans []span) {
	byName := selfByName(spans)
	names := make([]string, 0, len(byName))
	var total time.Duration
	for n, d := range byName {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(a, b int) bool { return byName[names[a]] > byName[names[b]] })
	fmt.Printf("# %s span self time (span minus children, summed over traced repetitions)\n", name)
	for _, n := range names {
		fmt.Printf("%-44s %13.3f ms %5.1f %%\n", "span."+n, float64(byName[n].Nanoseconds())/1e6, 100*float64(byName[n])/float64(max(total, 1)))
	}
}
