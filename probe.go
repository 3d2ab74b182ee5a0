package netfence

import (
	"fmt"
	"strings"

	"netfence/internal/attack"
	"netfence/internal/metrics"
)

// Probe measures a scenario run and writes its findings into the Result.
// Probes share the central measurement window: meters are snapshotted at
// Warmup and read at Duration.
type Probe interface {
	install(env *scenarioEnv) error
	finish(env *scenarioEnv, res *Result)
}

// Result is one scenario's measured outcome: pure data, identical across
// reruns of the same seed, so sweep results can be compared directly.
type Result struct {
	Scenario string
	Defense  string
	// Topology is the registry-style name of the scenario's topology
	// ("dumbbell", "parkinglot", "star", "random-as", ...), so sweep
	// output is self-describing.
	Topology string
	// Attack lists the canonical attack-strategy names of the
	// scenario's AttackSpec workloads ("+"-joined; empty when the
	// scenario declares none).
	Attack string
	Seed   uint64
	// Senders is the topology's total sender population.
	Senders int
	// Deployed is the effective fraction of source ASes running the
	// defense (1 = full deployment).
	Deployed               float64
	DurationSec, WarmupSec float64

	// GoodputProbe: mean post-warmup goodput of user and attacker
	// senders, their ratio (the paper's headline fairness metric), the
	// per-sender rates behind the means, and bottleneck utilization.
	UserBps, AttackerBps float64
	Ratio                float64
	UserRates            []float64
	AttackerRates        []float64
	Utilization          float64

	// FairnessProbe: Jain's index across user senders.
	Jain float64

	// BoundProbe: the per-sender fair share, the discounted Theorem-1
	// goodput floor ν·ρ·C/(G+B), and whether the measured mean user
	// goodput clears it.
	FairShareBps float64
	BoundBps     float64
	BoundHolds   bool

	// FCTProbe: transfer-completion aggregate of the file and web
	// workloads.
	FCT FCTSummary

	// TimeseriesProbe: per-interval samples.
	Series []Sample

	// Counters is the deterministic observability snapshot: every
	// packet-path counter, gauge and histogram series with a non-zero
	// value, merged across shards (see the metric catalog in
	// Metrics()). Byte-identical across shard counts; runtime-plane
	// metrics (per-shard event counts, handoff batches) are deliberately
	// excluded — read them with Instance.RuntimeCounters.
	Counters map[string]uint64

	// SearchTrace, on a result produced by an adversarial search (see
	// SearchSpec), records the candidate sequence that led the optimizer
	// to this configuration — provenance for the worst-found table. nil
	// on directly-run scenarios.
	SearchTrace []SearchStep
}

// FCTSummary condenses the flow-completion-time aggregate.
type FCTSummary struct {
	Count, Failed   int
	MeanSec, P95Sec float64
	Completion      float64
}

// Sample is one timeseries interval.
type Sample struct {
	// TimeSec is the interval's end, in simulated seconds.
	TimeSec float64
	// UserBps and AttackerBps are aggregate goodput over the interval.
	UserBps, AttackerBps float64
	// Monitoring reports whether the NetFence bottleneck was in its
	// monitoring cycle at the sample instant (false for other defenses).
	Monitoring bool
}

// String renders the one-line summary of a result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s", r.Scenario, r.Defense)
	if r.Topology != "" {
		fmt.Fprintf(&b, " %s", r.Topology)
	}
	if r.Attack != "" {
		fmt.Fprintf(&b, " atk=%s", r.Attack)
	}
	fmt.Fprintf(&b, " seed=%d n=%d", r.Seed, r.Senders)
	if r.Deployed < 1 {
		fmt.Fprintf(&b, " deploy=%.0f%%", 100*r.Deployed)
	}
	b.WriteString("]")
	if r.UserBps > 0 || r.AttackerBps > 0 {
		fmt.Fprintf(&b, " user=%.0fkbps attacker=%.0fkbps ratio=%.2f jain=%.2f util=%.0f%%",
			r.UserBps/1000, r.AttackerBps/1000, r.Ratio, r.Jain, 100*r.Utilization)
	}
	if r.BoundBps > 0 {
		fmt.Fprintf(&b, " floor=%.0fkbps holds=%v", r.BoundBps/1000, r.BoundHolds)
	}
	if r.FCT.Count+r.FCT.Failed > 0 {
		fmt.Fprintf(&b, " fct=%.2fs p95=%.2fs completion=%.0f%%",
			r.FCT.MeanSec, r.FCT.P95Sec, 100*r.FCT.Completion)
	}
	return b.String()
}

// FormatResults renders a result set as an aligned table — the unified
// output of RunAll and Sweep.Run.
func FormatResults(results []*Result) string {
	cols := []string{"scenario", "defense", "topo", "attack", "seed", "senders", "deploy",
		"user kbps", "atk kbps", "ratio", "jain", "util", "fct(s)", "compl"}
	rows := [][]string{}
	for _, r := range results {
		if r == nil {
			continue
		}
		fctMean, compl := "-", "-"
		if r.FCT.Count+r.FCT.Failed > 0 {
			fctMean = fmt.Sprintf("%.2f", r.FCT.MeanSec)
			compl = fmt.Sprintf("%.0f%%", 100*r.FCT.Completion)
		}
		topoName := r.Topology
		if topoName == "" {
			topoName = "-"
		}
		atkName := r.Attack
		if atkName == "" {
			atkName = "-"
		}
		rows = append(rows, []string{
			r.Scenario, r.Defense, topoName, atkName,
			fmt.Sprintf("%d", r.Seed), fmt.Sprintf("%d", r.Senders),
			fmt.Sprintf("%.0f%%", 100*r.Deployed),
			fmt.Sprintf("%.0f", r.UserBps/1000), fmt.Sprintf("%.0f", r.AttackerBps/1000),
			fmt.Sprintf("%.2f", r.Ratio), fmt.Sprintf("%.2f", r.Jain),
			fmt.Sprintf("%.0f%%", 100*r.Utilization), fctMean, compl,
		})
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(cols)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// GoodputProbe measures post-warmup goodput: per-sender rates, user and
// attacker means, their ratio, and bottleneck utilization.
type GoodputProbe struct{}

func (GoodputProbe) install(*scenarioEnv) error { return nil }

func (GoodputProbe) finish(env *scenarioEnv, res *Result) {
	window := (env.duration - env.warmup).Seconds()
	if window <= 0 {
		return
	}
	res.UserRates, _, res.UserBps = env.goodput(false, window)
	res.AttackerRates, _, res.AttackerBps = env.goodput(true, window)
	if res.AttackerBps > 0 {
		res.Ratio = res.UserBps / res.AttackerBps
	}
	for i, l := range env.bottlenecks {
		if u := l.Utilization(env.txWarmMarks[i], env.duration-env.warmup); u > res.Utilization {
			res.Utilization = u
		}
	}
}

// FairnessProbe computes Jain's fairness index across the user senders'
// post-warmup goodput.
type FairnessProbe struct{}

func (FairnessProbe) install(*scenarioEnv) error { return nil }

func (FairnessProbe) finish(env *scenarioEnv, res *Result) {
	window := (env.duration - env.warmup).Seconds()
	if window <= 0 {
		return
	}
	rates, weights, _ := env.goodput(false, window)
	res.Jain = metrics.JainWeighted(rates, weights)
}

// FCTProbe summarizes the transfer completion times collected by the
// file and web workloads.
type FCTProbe struct{}

func (FCTProbe) install(*scenarioEnv) error { return nil }

func (FCTProbe) finish(env *scenarioEnv, res *Result) {
	f := env.mergedFCT()
	res.FCT = FCTSummary{
		Count:      f.Count(),
		Failed:     f.Failed(),
		MeanSec:    f.Mean().Seconds(),
		P95Sec:     f.Percentile(95).Seconds(),
		Completion: f.CompletionRatio(),
	}
}

// BoundProbe computes the Theorem-1 (§3.4, Appendix A) fair-share floor
// for the scenario and checks the measured mean user goodput against it.
// Appendix A bounds the rate LIMIT of any sender with sufficient demand:
// r_a ≥ ρ·C/(G+B) with ρ = (1-MD)³, in every steady-state control
// interval, regardless of the attackers' strategy; realized goodput is
// ν·r_a for a transport of efficiency ν. The probe therefore records the
// discounted floor ν·ρ·C/(G+B) in Result.BoundBps and whether the mean
// user goodput clears it in Result.BoundHolds — the guarantee a defense
// must keep under every adaptive strategy, which the strategic
// experiment sweeps.
type BoundProbe struct {
	// Nu is the assumed transport efficiency ν discounting the
	// rate-limit bound down to a goodput floor (0 = 0.5, conservative
	// for the evaluation's TCP workloads at small scales).
	Nu float64
}

func (BoundProbe) install(env *scenarioEnv) error {
	// The floor ρ·C/(G+B) is a single-link statement: on a
	// multi-bottleneck topology the sender groups traverse different
	// links, so dividing one link's capacity by every group's senders
	// would deflate the floor into a vacuously-passing check. Fail fast
	// instead.
	if len(env.bottlenecks) != 1 {
		return fmt.Errorf("BoundProbe: the Theorem-1 floor needs a single-bottleneck topology (this one tags %d)", len(env.bottlenecks))
	}
	return nil
}

func (p BoundProbe) finish(env *scenarioEnv, res *Result) {
	window := (env.duration - env.warmup).Seconds()
	if window <= 0 {
		return
	}
	senders := env.builtTopo.senderCount()
	if senders == 0 {
		return
	}
	nu := p.Nu
	if nu <= 0 {
		nu = attack.DefaultNu
	}
	res.FairShareBps = float64(env.bottleneckBps()) / float64(senders)
	res.BoundBps = nu * attack.TheoremBound(env.nfConfig(), env.bottleneckBps(), senders)
	// Measured independently of GoodputProbe so probe order is free.
	rates, _, mean := env.goodput(false, window)
	res.BoundHolds = len(rates) > 0 && mean >= res.BoundBps
}

// goodput returns the post-warmup goodput of the user (or attacker)
// meters over window seconds: each meter's per-sender rate and weight,
// and the population mean. A fleet meter's bytes stand for weight
// senders, so its per-sender rate is aggregate/weight and the mean is
// Σ aggregate / Σ weight. With every weight 1 both are the unweighted
// IEEE operations, bit for bit.
func (env *scenarioEnv) goodput(attacker bool, window float64) (rates, weights []float64, mean float64) {
	n := 0
	for _, m := range env.meters {
		if m.attacker == attacker {
			n++
		}
	}
	if n == 0 {
		return nil, nil, 0
	}
	rates, weights = make([]float64, 0, n), make([]float64, 0, n)
	var sum, wsum float64
	for _, m := range env.meters {
		if m.attacker != attacker {
			continue
		}
		agg := float64(m.bytes()-m.warmMark) * 8 / window
		w := float64(m.weight)
		rates = append(rates, agg/w)
		weights = append(weights, w)
		sum += agg
		wsum += w
	}
	return rates, weights, sum / wsum
}

// TimeseriesProbe samples aggregate user and attacker goodput every
// Interval over the whole run (not just post-warmup), tagging each sample
// with the NetFence monitoring-cycle state where applicable.
type TimeseriesProbe struct {
	// Interval is the sampling period (0 = 10 s).
	Interval Time
}

func (p TimeseriesProbe) install(env *scenarioEnv) error {
	interval := p.Interval
	if interval <= 0 {
		interval = 10 * Second
	}
	// One shard keeps the direct tick: per-meter rows and a merge on
	// every Series read would cost a serve-mode job allocations for
	// nothing to merge.
	if len(env.sh.engines) > 1 {
		return p.installSharded(env, interval)
	}
	eng := env.sh.engines[0]
	eng.Tick(interval, func() {
		secs := interval.Seconds()
		var user, atk float64
		for _, m := range env.meters {
			cur := m.bytes()
			rate := float64(cur-m.tickMark) * 8 / secs
			m.tickMark = cur
			if m.attacker {
				atk += rate
			} else {
				user += rate
			}
		}
		s := Sample{
			TimeSec:     eng.Now().Seconds(),
			UserBps:     user,
			AttackerBps: atk,
		}
		if env.nfBottleneck != nil {
			s.Monitoring = env.nfBottleneck.Monitoring()
		}
		env.series = append(env.series, s)
	})
	return nil
}

// installSharded ticks every shard at the same simulated instants: each
// shard records its own meters' per-interval rates (and the NetFence
// bottleneck's shard the monitoring flag), and finish sums them in
// global meter order — the single-engine accumulation order, so the
// samples come out bit-identical.
func (p TimeseriesProbe) installSharded(env *scenarioEnv, interval Time) error {
	secs := interval.Seconds()
	monShard := -1
	if env.nfBottleneck != nil && len(env.bottlenecks) > 0 {
		monShard = env.sh.shardOf(env.bottlenecks[0].From.ID)
	}
	// Meter ownership is fixed at attach time; bucket once so each
	// shard's tick touches only its own meters instead of scanning the
	// whole population behind the window barrier.
	buckets := make([][]int, len(env.sh.engines))
	for i, m := range env.meters {
		buckets[m.shard] = append(buckets[m.shard], i)
	}
	rates := make([][]float64, len(env.meters))
	env.meterRates = rates
	for i, eng := range env.sh.engines {
		shard, e, mine := i, eng, buckets[i]
		e.Tick(interval, func() {
			for _, j := range mine {
				m := env.meters[j]
				cur := m.bytes()
				rates[j] = append(rates[j], float64(cur-m.tickMark)*8/secs)
				m.tickMark = cur
			}
			if shard == 0 {
				env.tickTimes = append(env.tickTimes, e.Now().Seconds())
			}
			if shard == monShard {
				env.monFlags = append(env.monFlags, env.nfBottleneck.Monitoring())
			}
		})
	}
	return nil
}

func (TimeseriesProbe) finish(env *scenarioEnv, res *Result) {
	res.Series = env.mergedSeries()
}

// mergedSeries returns the timeseries collected so far. On one shard
// that is the accumulated sample slice; on a sharded run the
// per-shard buckets are merged in global meter order — the
// single-engine accumulation order, so the samples come out
// bit-identical. The merge is built fresh each call (not appended onto
// prior state) so repeat collection — a second Instance.Run, or the
// serve mode streaming at every segment boundary — returns a
// consistent snapshot instead of duplicates. Sharded merges are only
// coherent at a window barrier (a control point or the finished run),
// where every shard has ticked the same instants.
func (env *scenarioEnv) mergedSeries() []Sample {
	if len(env.sh.engines) == 1 {
		return env.series
	}
	series := make([]Sample, 0, len(env.tickTimes))
	for k, tsec := range env.tickTimes {
		s := Sample{TimeSec: tsec}
		for i, m := range env.meters {
			if k >= len(env.meterRates[i]) {
				continue
			}
			if m.attacker {
				s.AttackerBps += env.meterRates[i][k]
			} else {
				s.UserBps += env.meterRates[i][k]
			}
		}
		if k < len(env.monFlags) {
			s.Monitoring = env.monFlags[k]
		}
		series = append(series, s)
	}
	return series
}
