package exp

import (
	"fmt"

	"netfence"
)

// AblateHysteresis probes the design choice of footnote 1: the L-down
// stamping hysteresis must extend two control intervals past the last
// congestion instant, or a strategic sender that bursts in one interval
// can harvest L-up feedback in the next and escape the multiplicative
// decrease. The adversary bursts at 1 Mbps for one control interval,
// then trickles just enough to collect feedback for one interval, in a
// loop; its admitted throughput (and the user's) is reported for
// hysteresis windows of 0, 1 and 2 control intervals.
func AblateHysteresis(sc Scale) Result {
	res := Result{
		Name:    "ablation",
		Title:   "L-down hysteresis (footnote 1): strategic burst attacker vs window",
		Columns: []string{"hysteresis (x Ilim)", "attacker kbps", "user kbps", "fair kbps"},
	}
	for _, h := range []int{0, 1, 2} {
		atk, user, fair := ablateHystCell(sc, h)
		res.AddRow(fmt.Sprintf("%d", h),
			fmt.Sprintf("%.0f", atk/1000),
			fmt.Sprintf("%.0f", user/1000),
			fmt.Sprintf("%.0f", fair/1000))
	}
	res.Note("expected: with a short window the burst-and-harvest attacker beats its fair share; 2x Ilim pins it down (the paper's minimum robust value)")
	return res
}

func ablateHystCell(sc Scale, hysteresis int) (atkBps, userBps, fairBps float64) {
	const bottleneck = 800_000
	cfg := netfence.DefaultConfig()
	cfg.HysteresisIntervals = hysteresis
	r := sc.build(netfence.Scenario{
		Topology: netfence.DumbbellSpec{Senders: 2, BottleneckBps: bottleneck, ColluderASes: 1},
		Defense:  netfence.DefenseSpec{Name: "netfence", Config: cfg},
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: []int{0}},
			// Burst one full control interval, harvest L-up the next; the
			// trickle keeps feedback flowing.
			netfence.OnOffFlood{Senders: []int{1}, On: cfg.Ilim, Off: cfg.Ilim, OffRateBps: 40_000, ToColluders: true},
		},
	}).Run()
	return r.AttackerBps, r.UserBps, bottleneck / 2
}

// AblateBucket probes the §4.3.3 design choice of a leaky-bucket QUEUE
// over a token bucket for the regular-packet rate limiter. Attackers run
// synchronized on-off bursts with long silences; a token bucket banks
// credit during the silences and releases line-rate bursts that congest
// the link, while the leaky bucket's output can never exceed the limit.
func AblateBucket(sc Scale) Result {
	res := Result{
		Name:    "ablation",
		Title:   "regular-limiter shape under synchronized on-off bursts",
		Columns: []string{"limiter", "user kbps", "attacker kbps", "bottleneck drops"},
	}
	for _, token := range []bool{false, true} {
		name := "leaky queue (paper)"
		if token {
			name = "token bucket"
		}
		user, atk, drops := ablateBucketCell(sc, token)
		res.AddRow(name,
			fmt.Sprintf("%.0f", user/1000),
			fmt.Sprintf("%.0f", atk/1000),
			fmt.Sprintf("%d", drops))
	}
	res.Note("expected: the token bucket admits credit-funded bursts that cost the user throughput and the link extra loss")
	return res
}

func ablateBucketCell(sc Scale, token bool) (userBps, atkBps float64, drops uint64) {
	cfg := netfence.DefaultConfig()
	cfg.TokenBucketLimiter = token
	in := sc.build(netfence.Scenario{
		Topology: netfence.DumbbellSpec{Senders: 4, BottleneckBps: 800_000, ColluderASes: 1},
		Defense:  netfence.DefenseSpec{Name: "netfence", Config: cfg},
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: []int{0}},
			// Feedback keeps flowing between bursts on the trickle.
			netfence.OnOffFlood{Senders: []int{1, 2, 3}, On: 500 * netfence.Millisecond, Off: 4 * netfence.Second,
				OffRateBps: 30_000, ToColluders: true},
		},
	})
	q := in.Dumbbell.Bottleneck.Q
	in.Advance(sc.Warmup)
	mark := q.Stats().Dropped
	r := in.Run()
	return r.UserBps, r.AttackerBps, q.Stats().Dropped - mark
}

// AblateQuota probes the §7 congestion quota. The premise of the quota
// is that legitimate users have LIMITED demand at attack time while
// attackers persistently congest the link: the user here repeats 50 KB
// transfers with think time, the attacker floods 1 Mbps nonstop. With
// the quota the attacker burns its congestion-traffic budget and is cut
// off; the demand-limited user barely touches its own budget.
func AblateQuota(sc Scale) Result {
	res := Result{
		Name:    "ablation",
		Title:   "congestion quota (§7): persistent flooder vs 250 KB/60s budget",
		Columns: []string{"quota", "user FCT (s)", "attacker kbps", "attacker quota drops"},
	}
	for _, quota := range []int64{0, 250_000} {
		name := "off"
		if quota > 0 {
			name = "250 KB / 60 s"
		}
		fct, atk, qdrops := ablateQuotaCell(sc, quota)
		res.AddRow(name,
			fmt.Sprintf("%.2f", fct),
			fmt.Sprintf("%.0f", atk/1000),
			fmt.Sprintf("%d", qdrops))
	}
	res.Note("the quota charges only bytes forwarded while a rate limit decreases; the demand-limited user stays under budget while the persistent flooder is throttled")
	return res
}

func ablateQuotaCell(sc Scale, quota int64) (userFCTSec, atkBps float64, quotaDrops uint64) {
	cfg := netfence.DefaultConfig()
	cfg.CongestionQuotaBytes = quota
	in := sc.build(netfence.Scenario{
		Topology: netfence.DumbbellSpec{Senders: 2, BottleneckBps: 400_000, ColluderASes: 1},
		Defense:  netfence.DefenseSpec{Name: "netfence", Config: cfg},
		Workloads: []netfence.Workload{
			netfence.FileTransfers{Senders: []int{0}, FileBytes: 50_000, Gap: 500 * netfence.Millisecond},
			netfence.ColluderPairs{Senders: []int{1}},
		},
	})
	r := in.Run()
	return r.FCT.MeanSec, r.AttackerBps, in.System.(*netfence.System).Access(in.Dumbbell.SrcAccess[1]).QuotaDrops
}

// AblateInitRate probes the undocumented initial rate-limit parameter:
// AIMD convergence should make the steady-state fair share insensitive
// to it (DESIGN.md records 100 kbps as the default).
func AblateInitRate(sc Scale) Result {
	res := Result{
		Name:    "ablation",
		Title:   "initial rate limit: steady-state user/attacker throughput",
		Columns: []string{"initial kbps", "user kbps", "attacker kbps", "ratio"},
	}
	for _, init := range []int64{12_500, 50_000, 100_000, 400_000} {
		user, atk := ablateInitCell(sc, init)
		ratio := 0.0
		if atk > 0 {
			ratio = user / atk
		}
		res.AddRow(fmt.Sprintf("%d", init/1000),
			fmt.Sprintf("%.0f", user/1000),
			fmt.Sprintf("%.0f", atk/1000),
			fmt.Sprintf("%.2f", ratio))
	}
	res.Note("expected: steady-state shares are insensitive to the initial limit (AIMD convergence)")
	return res
}

func ablateInitCell(sc Scale, initBps int64) (userBps, atkBps float64) {
	cfg := netfence.DefaultConfig()
	cfg.InitialRateBps = initBps
	r := sc.build(netfence.Scenario{
		Topology:  netfence.DumbbellSpec{Senders: 2, BottleneckBps: 400_000, ColluderASes: 1},
		Defense:   netfence.DefenseSpec{Name: "netfence", Config: cfg},
		Workloads: []netfence.Workload{netfence.LongTCP{Senders: []int{0}}, netfence.ColluderPairs{Senders: []int{1}}},
	}).Run()
	return r.UserBps, r.AttackerBps
}
