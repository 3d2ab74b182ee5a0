package netfence

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"netfence/internal/attack"
	"netfence/internal/netsim"
	"netfence/internal/obs"
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
	// per-sender rates behind the means, and bottleneck utilization: the
	// busiest bottleneck's post-warmup transmitted bits over its capacity
	// integrated over the window at the rates link mutations set.
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
	var rows [][]string
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
	var b strings.Builder
	obs.WriteTable(&b, []string{"scenario", "defense", "topo", "attack", "seed", "senders", "deploy",
		"user kbps", "atk kbps", "ratio", "jain", "util", "fct(s)", "compl"}, rows)
	return b.String()
}

// goodputMeter is one sender's goodput as the probes read it: the
// delivered-byte count it points at — a TCP receiver's, a UDP sink's or
// a victim listener's per-source counter — and its warm-up and tick
// marks. The count lives at the receiver, so in a sharded run the meter
// belongs to the receiver's shard, which alone marks and ticks it.
type goodputMeter struct {
	bytes    *int64
	warmMark int64
	tickMark int64
	// shard owns the meter; slot is its index in the shard's list.
	shard, slot int32
	// weight is how many modeled senders the meter aggregates: 1 for an
	// ordinary sender, N for a fleet meter reading the combined sink of
	// N homogeneous senders. Probes divide by weight for per-sender
	// rates and weight the fairness statistics accordingly.
	weight   int32
	attacker bool
}

// shardMeters is one shard's share of the meters, in global meter
// order: the warm-up snapshot and the timeseries tick walk it on the
// shard's own engine. row is the timeseries the tick appends to, one
// rate per meter per tick not yet merged, so the k-th buffered tick's
// rates start at k*len(meters).
type shardMeters struct {
	meters []*goodputMeter
	row    []float64
}

// addMeter registers a goodput meter standing for weight modeled senders
// that reads the byte count bytes, owned by owner's shard (the receiver
// of the measured traffic).
func (env *scenarioEnv) addMeter(owner *netsim.Node, attacker bool, weight int32, bytes *int64) {
	sh := env.sh.shardOf(owner.ID)
	own := &env.byShard[sh]
	m := &goodputMeter{bytes: bytes, shard: int32(sh), slot: int32(len(own.meters)), weight: weight, attacker: attacker}
	own.meters = append(own.meters, m)
	env.meters = append(env.meters, m)
}

// snapshotWarmShard is the warmup snapshot: shard sh marks the meters
// and bottleneck counters it owns, on its own engine, at the same
// simulated instant as every other shard. txWarmMarks is preallocated
// at build, so concurrent shards write disjoint slots.
func (env *scenarioEnv) snapshotWarmShard(sh int) {
	for _, m := range env.byShard[sh].meters {
		m.warmMark = *m.bytes
	}
	for i, l := range env.graph.Bottlenecks() {
		if env.sh.shardOf(l.From.ID) == sh {
			env.txWarmMarks[i] = l.TxBytes
		}
	}
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
		agg := float64(*m.bytes-m.warmMark) * 8 / window
		w := float64(m.weight)
		rates = append(rates, agg/w)
		weights = append(weights, w)
		sum += agg
		wsum += w
	}
	return rates, weights, sum / wsum
}

// fctRecord is one shard's transfer outcomes from the file and web
// workloads: the completion times of the transfers that finished and
// the count of those that failed.
type fctRecord struct {
	samples []Time
	failed  int
}

func (f *fctRecord) add(d Time, ok bool) {
	if ok {
		f.samples = append(f.samples, d)
	} else {
		f.failed++
	}
}

// summary condenses the record, sorting its samples: the mean
// completion time (an integer Time division, so sample order cannot
// change it), the 95th percentile at the ceil rank, and the completion
// ratio, 1 when no transfer ended.
func (f *fctRecord) summary() FCTSummary {
	n := len(f.samples)
	s := FCTSummary{Count: n, Failed: f.failed, Completion: 1}
	if n+f.failed > 0 {
		s.Completion = float64(n) / float64(n+f.failed)
	}
	if n == 0 {
		return s
	}
	var sum Time
	for _, d := range f.samples {
		sum += d
	}
	s.MeanSec = (sum / Time(n)).Seconds()
	slices.Sort(f.samples)
	s.P95Sec = f.samples[int(math.Ceil(0.95*float64(n)))-1].Seconds()
	return s
}

// fctFor returns the record of node n's shard, which its transfers feed.
func (env *scenarioEnv) fctFor(n *netsim.Node) *fctRecord {
	return &env.fcts[env.sh.shardOf(n.ID)]
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
	for i, l := range env.graph.Bottlenecks() {
		capacity := env.links[i].capacityBits(env.warmup, env.duration)
		if u := float64(l.TxBytes-env.txWarmMarks[i]) * 8 / capacity; u > res.Utilization {
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
	res.Jain = jainWeighted(rates, weights)
}

// jainWeighted computes Jain's fairness index (§6.3.2) over a population
// where xs[i] is one per-member value shared by ws[i] members:
// (Σ w·x)² / (Σw · Σ w·x²). It is 1 when all values are equal and
// approaches 1/n under maximal unfairness; an empty or all-zero input
// yields 1. With every weight 1 it performs exactly the unweighted
// index's floating-point operations (Σx)² / (n · Σx²).
func jainWeighted(xs, ws []float64) float64 {
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

// FCTProbe summarizes the transfer completion times collected by the
// file and web workloads.
type FCTProbe struct{}

func (FCTProbe) install(*scenarioEnv) error { return nil }

// finish merges the shards' records in shard order into a fresh one.
func (FCTProbe) finish(env *scenarioEnv, res *Result) {
	var all fctRecord
	for _, f := range env.fcts {
		all.samples = append(all.samples, f.samples...)
		all.failed += f.failed
	}
	res.FCT = all.summary()
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
	if len(env.graph.Bottlenecks()) != 1 {
		return fmt.Errorf("BoundProbe: the Theorem-1 floor needs a single-bottleneck topology (this one tags %d)", len(env.graph.Bottlenecks()))
	}
	return nil
}

func (p BoundProbe) finish(env *scenarioEnv, res *Result) {
	window := (env.duration - env.warmup).Seconds()
	if window <= 0 {
		return
	}
	senders := senderCount(env.graph)
	if senders == 0 {
		return
	}
	nu := p.Nu
	if nu <= 0 {
		nu = attack.DefaultNu
	}
	res.FairShareBps = float64(env.bottleneckBps()) / float64(senders)
	res.BoundBps = nu * attack.TheoremBound(env.bottleneckBps(), senders)
	// Measured independently of GoodputProbe so probe order is free.
	rates, _, mean := env.goodput(false, window)
	res.BoundHolds = len(rates) > 0 && mean >= res.BoundBps
}

// TimeseriesProbe samples aggregate user and attacker goodput every
// Interval over the whole run (not just post-warmup), tagging each sample
// with the NetFence monitoring-cycle state where applicable.
type TimeseriesProbe struct {
	// Interval is the sampling period (0 = 10 s).
	Interval Time
}

// install ticks every shard at the same simulated instants: each shard
// appends its own meters' per-interval rates to its row, shard 0 records
// the tick instants and the NetFence bottleneck's shard the monitoring
// flags. The buffers hold only the ticks no merge has taken yet and grow
// by append, so Build allocates nothing in proportion to the tick count
// and a run's memory follows the ticks it has actually taken.
func (p TimeseriesProbe) install(env *scenarioEnv) error {
	interval := p.Interval
	if interval <= 0 {
		interval = 10 * Second
	}
	secs := interval.Seconds()
	monShard := -1
	if env.nfBottleneck != nil {
		monShard = env.sh.shardOf(env.graph.Bottlenecks()[0].From.ID)
	}
	for shard, eng := range env.sh.engines {
		own := &env.byShard[shard]
		eng.Tick(interval, func() {
			for _, m := range own.meters {
				cur := *m.bytes
				own.row = append(own.row, float64(cur-m.tickMark)*8/secs)
				m.tickMark = cur
			}
			if shard == 0 {
				env.tickTimes = append(env.tickTimes, eng.Now().Seconds())
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

// mergedSeries returns the timeseries collected so far (nil while it
// is empty). It merges the ticks buffered since the last call, summing
// the shards' rows in global meter order — the order one engine's tick
// would sum in, so the samples are bit-identical on every shard count —
// appends them to env.series and empties the buffers. Repeat reads (a
// second Instance.Run, or the serve mode streaming at every segment
// boundary) neither duplicate samples nor allocate, and a streaming run
// holds only its unmerged ticks. A merge is coherent at a window
// barrier (a control point or the finished run), where every shard has
// ticked the same instants.
func (env *scenarioEnv) mergedSeries() []Sample {
	for k, at := range env.tickTimes {
		s := Sample{TimeSec: at}
		for _, m := range env.meters {
			own := &env.byShard[m.shard]
			rate := own.row[k*len(own.meters)+int(m.slot)]
			if m.attacker {
				s.AttackerBps += rate
			} else {
				s.UserBps += rate
			}
		}
		if k < len(env.monFlags) {
			s.Monitoring = env.monFlags[k]
		}
		env.series = append(env.series, s)
	}
	env.tickTimes, env.monFlags = env.tickTimes[:0], env.monFlags[:0]
	for i := range env.byShard {
		env.byShard[i].row = env.byShard[i].row[:0]
	}
	if len(env.series) == 0 {
		return nil
	}
	return env.series
}
