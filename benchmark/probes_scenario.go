package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strconv"
	"time"

	netfence "netfence"
	"netfence/internal/exp"
	"netfence/internal/server"
	"netfence/internal/sim"
)

// probeScenario harvests the scenario-level rows: the two cells of one
// tiny-suite repetition, and on the large-flood spec the cost of
// driving a run in Advance segments instead of one Run, the per-segment
// cost distribution, result collection and the counter snapshot.
func probeScenario(l *ledger, sc scale, seed uint64) (ops, failed int) {
	tiny, _ := newWorkload(wlTiny, sc, seed)
	s := tiny.rep(nil, 0)
	ops, failed = s.Ops, s.Failed
	if len(s.CellRunS) == 2 {
		l.set("scenario.fig8_run_s", s.CellRunS[0])
		l.set("scenario.fig9_run_s", s.CellRunS[1])
	}

	cell := largeCell(sc, seed, false, 1)
	build := func() *netfence.Instance {
		in, err := cell.make(&netfence.Meter{}).Build()
		if err != nil {
			logf("scenario probes: build: %v", err)
			return nil
		}
		runtime.GC()
		return in
	}
	plain := build()
	if plain == nil {
		return ops + 1, failed + 1
	}
	t0 := time.Now()
	want, _ := json.Marshal(plain.Run())
	whole := time.Since(t0).Seconds()
	l.set("scenario.collect_ms", 1e3*bestOf(probeLoops, func() { plain.Finish() }))
	l.set("obs.counters_snapshot_us", 1e6*bestOf(probeLoops, func() { plain.Counters() }))
	plain = nil

	stepped := build()
	if stepped == nil {
		return ops + 1, failed + 1
	}
	const segments = 20
	var perEvent []float64
	t0 = time.Now()
	for i := 1; i <= segments; i++ {
		e0, s0 := stepped.EventsExecuted(), time.Now()
		stepped.Advance(sc.largeDur * netfence.Time(i) / segments)
		if n := stepped.EventsExecuted() - e0; n > 0 && i > segments/4 { // the first quarter warms caches up
			perEvent = append(perEvent, float64(time.Since(s0).Nanoseconds())/float64(n))
		}
	}
	got, _ := json.Marshal(stepped.Finish())
	segmented := time.Since(t0).Seconds()
	l.set("scenario.segment_ns_per_event_p50", median(perEvent))
	l.set("scenario.segment_ns_per_event_p95", quantile(perEvent, 0.95))
	l.set("scenario.advance_overhead_pct", 100*(segmented/whole-1))
	ops++
	if !bytes.Equal(want, got) {
		logf("scenario probes: the segmented run's Result differs from the single Run's")
		failed++
	}
	return ops, failed
}

// probeShards harvests the shard-coordination rows from one repetition
// of the large-passport-shards spec and its single-engine reference.
func probeShards(l *ledger, sc scale, seed uint64) (ops, failed int) {
	w, _ := newWorkload(wlShards, sc, seed)
	if err := w.prepare(); err != nil {
		logf("shard probes: %v", err)
		return 1, 1
	}
	s := w.rep(nil, 0)
	sh := s.Shard
	if sh == nil {
		logf("shard probes: the run was not sharded")
		return s.Ops, s.Ops
	}
	var maxNs, sumNs int64
	for _, ns := range sh.SerializedNanos {
		maxNs, sumNs = max(maxNs, ns), sumNs+ns
	}
	var maxEv, sumEv float64
	for i := 0; i < sh.Shards; i++ {
		ev := float64(s.Runtime[`sim_events_executed{shard="`+strconv.Itoa(i)+`"}`])
		maxEv, sumEv = max(maxEv, ev), sumEv+ev
	}
	handoffs := float64(s.Runtime["netsim_handoff_packet_total"])
	l.set("shard.windows", float64(sh.Windows))
	l.set("shard.serialized_max_ms", float64(maxNs)/1e6)
	l.set("shard.serialized_sum_ms", float64(sumNs)/1e6)
	l.set("shard.parallel_efficiency", w.(*simWorkload).refRunS/(float64(sh.Shards)*s.RunS))
	l.set("shard.handoff_packets", handoffs)
	l.set("shard.handoff_batches", float64(s.Runtime["netsim_handoff_batch_total"]))
	l.set("shard.mailbox_depth_hwm", float64(s.Runtime["netsim_mailbox_depth_hwm"]))
	l.set("shard.pipeline_hit_ratio", float64(s.Runtime["pipeline_precompute_hit_total"])/max(handoffs, 1))
	l.set("shard.events_imbalance", maxEv*float64(sh.Shards)/max(sumEv, 1))
	return s.Ops, s.Failed
}

// probeServer harvests the service rows from one serve-jobs round with
// the per-job result fetch on, plus the cost of decoding one job spec.
func probeServer(l *ledger, sc scale, seed uint64) (ops, failed int) {
	w := newServeWorkload(sc, seed)
	w.detail = true
	if err := w.prepare(); err != nil {
		logf("server probes: %v", err)
		return 1, 1
	}
	s := w.rep(nil, 0)
	col := func(keep func(jobTiming) bool, f func(jobTiming) float64) []float64 {
		var out []float64
		for _, j := range s.Jobs {
			if keep(j) {
				out = append(out, 1e3*f(j))
			}
		}
		return out
	}
	all := func(jobTiming) bool { return true }
	kind := func(k string) func(jobTiming) bool { return func(j jobTiming) bool { return j.Kind == k } }
	total := func(j jobTiming) float64 { return j.Total }
	l.set("server.submit_ms", median(col(all, func(j jobTiming) float64 { return j.Submit })))
	l.set("server.queue_wait_ms", median(col(all, func(j jobTiming) float64 { return j.Queued })))
	l.set("server.sse_first_sample_ms", median(col(func(j jobTiming) bool { return j.FirstSample > 0 }, func(j jobTiming) float64 { return j.FirstSample })))
	l.set("server.result_fetch_ms", median(col(all, func(j jobTiming) float64 { return j.Fetch })))
	l.set("server.metrics_scrape_ms", 1e3*s.ScrapeS)
	l.set("server.job_p50_ms", median(col(all, total)))
	l.set("server.job_p99_ms", quantile(col(all, total), 0.99))
	l.set("server.job_p50_ms.scenario", median(col(kind(kindScenario), total)))
	l.set("server.job_p50_ms.timeline", median(col(kind(kindTimeline), total)))
	l.set("server.job_p50_ms.sweep", median(col(kind(kindSweep), total)))
	l.set("server.rejected", float64(s.Rejected))

	body := w.jobs[0].body
	for _, j := range w.jobs {
		if j.kind == kindTimeline {
			body = j.body
			break
		}
	}
	decoded := 0
	l.set("server.spec_decode_us", bestNs(l.count(4_000), func(n int) {
		for i := 0; i < n; i++ {
			var spec server.JobSpec
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if dec.Decode(&spec) == nil && spec.Scenario != nil {
				if _, err := spec.Scenario.Scenario(); err == nil {
					decoded++
				}
			}
		}
	})/1e3)
	if decoded == 0 {
		logf("server.spec_decode_us: the spec did not decode")
	}
	return s.Ops, s.Failed
}

// probeExtras harvests the information rows: the flight recorder's
// cost, the hand-wired figure runners, and the adversarial search.
func probeExtras(l *ledger, sc scale, seed uint64) {
	// The fig9 cell with four flows traced against the same cell
	// untraced, alternating, fastest of three each.
	run := func(traceFlows int) float64 {
		scn := fig9Cell(sc, seed).make(nil)
		scn.Duration, scn.Warmup = scn.Duration/8, scn.Duration/16
		scn.TraceFlows = traceFlows
		in, err := scn.Build()
		if err != nil {
			logf("obs.trace_flows4_overhead_pct: %v", err)
			return 0
		}
		t0 := time.Now()
		in.Run()
		return time.Since(t0).Seconds()
	}
	off, on := run(0), run(4)
	for i := 0; i < 2; i++ {
		off, on = min(off, run(0)), min(on, run(4))
	}
	l.set("obs.trace_flows4_overhead_pct", 100*(on/off-1))

	// The figure runners as internal/exp hand-wires them today: the tiny
	// scale's first label, NetFence only.
	figure := func(name string) float64 {
		r, err := exp.RunnerByName(name)
		if err != nil {
			logf("exp probes: %v", err)
			return 0
		}
		scale := exp.Tiny
		scale.Labels = scale.Labels[:1]
		scale.Systems = []string{"netfence"}
		scale.Seed = seed
		scale.Duration /= sim.Time(l.div)
		scale.Warmup /= sim.Time(l.div)
		return bestOf(1, func() { r.Run(scale) })
	}
	l.set("exp.fig8_tiny_s", figure("fig8"))
	l.set("exp.fig9a_tiny_s", figure("fig9a"))

	// A four-candidate annealed search of the flood strategy against
	// TVA+ on a 20-sender collusion dumbbell.
	users := 5
	t0 := time.Now()
	rep, err := netfence.SearchSpec{
		Base: netfence.Scenario{
			Seed:     seed,
			Topology: netfence.DumbbellSpec{Senders: 20, BottleneckBps: 4_000_000, ColluderASes: 2},
			Workloads: []netfence.Workload{
				netfence.LongTCP{Senders: netfence.Range(0, users)},
				netfence.AttackSpec{Senders: netfence.Range(users, 20), RateBps: 1_000_000, ToColluders: true},
			},
			Duration: 20 * netfence.Second / netfence.Time(min(l.div, 4)),
		},
		Defenses: []string{"tva"}, Strategies: []string{"flood"},
		Optimizer: "anneal", Budget: 4, Seed: seed,
	}.Run()
	wall := time.Since(t0).Seconds()
	evals := 0
	if err != nil {
		logf("search.candidates_per_s: %v", err)
	} else {
		for _, row := range rep.Rows {
			evals += row.Evals
		}
	}
	l.set("search.candidates_per_s", float64(evals)/wall)
}
