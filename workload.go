package netfence

import (
	"fmt"

	"netfence/internal/attack"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/transport"
)

// Workload attaches traffic sources to a built scenario. The concrete
// workloads are small spec structs — LongTCP, FileTransfers, WebTraffic,
// UDPFlood, OnOffFlood, ColluderPairs, RequestFlood, FleetSpec,
// AttackSpec — and the only way traffic enters a run. Every workload names
// its senders by index into the topology's sender list (per group on the
// parking lot); Range builds index lists.
type Workload interface {
	attach(env *scenarioEnv) error
	// span reports the workload's kind, group and highest sender index
	// (-1 when it names no senders), so Sweep can fail fast on
	// populations too small for the declared sender lists.
	span() (kind string, group, maxIndex int)
}

// maxIndex returns the largest index in a sender list, or -1.
func maxIndex(senders []int) int {
	max := -1
	for _, i := range senders {
		if i > max {
			max = i
		}
	}
	return max
}

// Range returns the sender indices [lo, hi): Range(1, 10) selects
// senders 1 through 9.
func Range(lo, hi int) []int {
	if hi <= lo {
		return nil
	}
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// LongTCP attaches an unbounded TCP Reno flow from each listed sender to
// its group's victim — the paper's long-running legitimate user.
type LongTCP struct {
	// Senders indexes the topology's senders (within Group).
	Senders []int
	// Group selects the parking-lot sender group; must be 0 on a dumbbell.
	Group int
}

func (w LongTCP) span() (string, int, int) { return "LongTCP", w.Group, maxIndex(w.Senders) }

func (w LongTCP) attach(env *scenarioEnv) error {
	grp, err := env.group(w.Group, "LongTCP")
	if err != nil {
		return err
	}
	victim, err := groupVictim(grp, "LongTCP")
	if err != nil {
		return err
	}
	env.reserveMeters(len(w.Senders))
	for _, idx := range w.Senders {
		h, err := groupSender(grp, idx, "LongTCP")
		if err != nil {
			return err
		}
		flow := env.flowFrom(h)
		r := transport.NewTCPReceiver(victim.Host, flow)
		env.addMeter(victim, false, 1, r.Delivered())
		transport.NewTCPSender(h.Host, victim.ID, flow, -1).Start()
	}
	return nil
}

// FileTransfers attaches a repeating fixed-size file client from each
// listed sender to its group's victim: the §6.3.1 workload (a 20 KB file
// over a fresh connection, again and again). Completions feed the
// scenario's FCT aggregate; delivered bytes feed the goodput meters.
type FileTransfers struct {
	Senders []int
	Group   int
	// FileBytes is the transfer size (0 = the paper's 20 KB).
	FileBytes int64
	// Gap delays the next attempt after a completion (0 = immediate).
	Gap Time
}

func (w FileTransfers) span() (string, int, int) {
	return "FileTransfers", w.Group, maxIndex(w.Senders)
}

func (w FileTransfers) attach(env *scenarioEnv) error {
	grp, err := env.group(w.Group, "FileTransfers")
	if err != nil {
		return err
	}
	victim, err := groupVictim(grp, "FileTransfers")
	if err != nil {
		return err
	}
	size := w.FileBytes
	if size <= 0 {
		size = 20_000
	}
	env.ensureListener(w.Group)
	env.reserveMeters(len(w.Senders))
	for _, idx := range w.Senders {
		h, err := groupSender(grp, idx, "FileTransfers")
		if err != nil {
			return err
		}
		ctr := env.srcCounter(w.Group, h.ID)
		env.addMeter(victim, false, 1, ctr)
		c := transport.NewFileClient(h.Host, victim.ID, size)
		c.Gap = w.Gap
		fct := env.fctFor(h)
		c.OnResult = fct.add
		env.stoppers = append(env.stoppers, c)
		c.Start()
	}
	return nil
}

// WebTraffic attaches the §6.3.2 web-like source (Pareto/exponential
// file-size mixture with think times) from each listed sender to its
// group's victim. Transfers feed the FCT aggregate and goodput meters.
type WebTraffic struct {
	Senders []int
	Group   int
}

func (w WebTraffic) span() (string, int, int) { return "WebTraffic", w.Group, maxIndex(w.Senders) }

func (w WebTraffic) attach(env *scenarioEnv) error {
	grp, err := env.group(w.Group, "WebTraffic")
	if err != nil {
		return err
	}
	victim, err := groupVictim(grp, "WebTraffic")
	if err != nil {
		return err
	}
	env.ensureListener(w.Group)
	env.reserveMeters(len(w.Senders))
	for _, idx := range w.Senders {
		h, err := groupSender(grp, idx, "WebTraffic")
		if err != nil {
			return err
		}
		ctr := env.srcCounter(w.Group, h.ID)
		env.addMeter(victim, false, 1, ctr)
		src := transport.NewWebSource(h.Host, victim.ID)
		fct := env.fctFor(h)
		src.OnResult = func(_ int64, d Time, ok bool) { fct.add(d, ok) }
		env.stoppers = append(env.stoppers, src)
		src.Start()
	}
	return nil
}

// UDPFlood attaches a constant-rate UDP source from each listed sender —
// the paper's 1 Mbps attack load — aimed at the group's victim, or at the
// group's colluder hosts when ToColluders is set. Flood senders count as
// attackers for the goodput probes and join the victim's deny set when
// the scenario sets DenyAttackers.
type UDPFlood struct {
	Senders []int
	Group   int
	// RateBps is the per-sender send rate (0 = 1 Mbps).
	RateBps int64
	// ToColluders redirects the flood to the group's colluder hosts
	// (round-robin), modelling the §6.3.2 colluding sender-receiver pairs.
	ToColluders bool
}

func (w UDPFlood) span() (string, int, int) { return "UDPFlood", w.Group, maxIndex(w.Senders) }

func (w UDPFlood) attach(env *scenarioEnv) error {
	return attachFlood(env, floodSpec{
		senders: w.Senders, group: w.Group, rate: w.RateBps,
		toColluders: w.ToColluders, kind: "UDPFlood",
	})
}

// OnOffFlood attaches the synchronized on-off UDP source of the §6.3.2
// strategic attacks: every source turns on and off together, maximizing
// burst alignment. OffRateBps keeps a low-rate trickle during off phases
// (the feedback-harvesting shape of the hysteresis ablation).
type OnOffFlood struct {
	Senders []int
	Group   int
	RateBps int64
	// On and Off are the burst and silence durations; both must be set.
	On, Off Time
	// OffRateBps, when positive, trickles during off phases.
	OffRateBps  int64
	ToColluders bool
}

func (w OnOffFlood) span() (string, int, int) { return "OnOffFlood", w.Group, maxIndex(w.Senders) }

func (w OnOffFlood) attach(env *scenarioEnv) error {
	if w.On <= 0 || w.Off <= 0 {
		return fmt.Errorf("OnOffFlood: On and Off must both be positive")
	}
	return attachFlood(env, floodSpec{
		senders: w.Senders, group: w.Group, rate: w.RateBps, toColluders: w.ToColluders,
		on: w.On, off: w.Off, offRate: w.OffRateBps, kind: "OnOffFlood",
	})
}

// ColluderPairs is UDPFlood aimed at colluding receivers: compromised
// sender-receiver pairs that flood through the bottleneck while the
// receiver dutifully returns congestion policing feedback, so
// capabilities alone cannot stop them (§6.3.2).
type ColluderPairs struct {
	Senders []int
	Group   int
	RateBps int64
}

func (w ColluderPairs) span() (string, int, int) {
	return "ColluderPairs", w.Group, maxIndex(w.Senders)
}

func (w ColluderPairs) attach(env *scenarioEnv) error {
	return attachFlood(env, floodSpec{
		senders: w.Senders, group: w.Group, rate: w.RateBps,
		toColluders: true, kind: "ColluderPairs",
	})
}

// floodSpec is the shared shape behind the UDP flood workloads.
type floodSpec struct {
	senders     []int
	group       int
	rate        int64
	on, off     Time
	offRate     int64
	toColluders bool
	// legit marks the senders as legitimate: they stay off the deny set
	// and meter as users, not attackers (legitimate fleets).
	legit bool
	// weight, when positive, makes each sender a FleetSource attachment
	// point standing for weight modeled senders (FleetSpec's aggregate
	// mode); 0 attaches one UDPSource per sender.
	weight int
	kind   string
}

// newSink registers a UDP sink for flow on host h. Sinks live as long as
// the run, so they are carved from the run's slab; a workload reserves
// its count first.
func (env *scenarioEnv) newSink(h *netsim.Node, flow packet.FlowID) *transport.UDPSink {
	s := env.sinks.New()
	h.Host.Register(flow, s)
	return s
}

func attachFlood(env *scenarioEnv, spec floodSpec) error {
	grp, err := env.group(spec.group, spec.kind)
	if err != nil {
		return err
	}
	if spec.toColluders && len(grp.Colluders) == 0 {
		return fmt.Errorf("%s: topology has no colluder hosts in group %d (set ColluderASes)", spec.kind, spec.group)
	}
	if !spec.toColluders {
		if _, err := groupVictim(grp, spec.kind); err != nil {
			return err
		}
	}
	rate := spec.rate
	if rate <= 0 {
		rate = 1_000_000
	}
	env.reserveMeters(len(spec.senders))
	env.sinks.Reserve(len(spec.senders))
	for k, idx := range spec.senders {
		h, err := groupSender(grp, idx, spec.kind)
		if err != nil {
			return err
		}
		var dstHost = grp.Victim
		if spec.toColluders {
			dstHost = grp.Colluders[k%len(grp.Colluders)]
		} else if !spec.legit {
			env.denySet[h.ID] = true
		}
		weight := int32(1)
		if spec.weight > 0 {
			// The attachment node carries the fleet weight: the access
			// router reads it when creating this sender's limiters, the
			// partition reads it for load balancing, and senderCount
			// folds it into the population the Theorem-1 probe divides by.
			weight = int32(spec.weight)
			h.Weight = weight
		}
		flow := env.flowFrom(h)
		sink := env.newSink(dstHost, flow)
		env.addMeter(dstHost, !spec.legit, weight, &sink.Bytes)
		if spec.weight > 0 {
			fs := transport.NewFleetSource(h.Host, dstHost.ID, flow, spec.weight, rate, packet.SizeData, h.Network().Eng.KeyStream(uint64(h.ID)))
			cells := h.Host.Network().Cells
			cells.Add(obs.FleetAttached, 1)
			cells.Add(obs.FleetModeledSenders, uint64(spec.weight))
			env.stoppers = append(env.stoppers, fs)
			fs.Start()
			continue
		}
		u := transport.NewUDPSource(h.Host, dstHost.ID, flow, rate, packet.SizeData)
		u.OnTime, u.OffTime = spec.on, spec.off
		u.OffRateBps = spec.offRate
		env.stoppers = append(env.stoppers, u)
		u.Start()
	}
	return nil
}

// FleetSpec models Count statistically homogeneous UDP senders, all
// aimed at the group's victim, with only len(Senders) materialized
// hosts — the million-sender aggregation layer. Each listed sender host
// becomes a fleet attachment point standing for Count/len(Senders)
// modeled senders: its node carries the fleet weight, the access router
// scales the per-(sender, bottleneck) AIMD limiter and request token
// bucket by that weight in closed form, and one transport.FleetSource
// emits the fleet's combined offered load with jitter drawn from a
// per-fleet deterministic RNG stream (the engine's KeyStream for the
// attachment node, so results are byte-identical across shard counts).
// Probes divide the fleet meter by its weight, so per-sender goodput,
// fairness and Theorem-1 bounds read exactly as if the fleet were
// materialized.
//
// Exact fan-out contract: when per-sender identity matters the fleet
// materializes one real sender per modeled sender instead. That happens
// when Exact is set, and is forced when the scenario timeline contains
// deployment mutations (they change who polices each sender, which the
// closed-form aggregation cannot track). Forced or explicit fan-out
// requires Count == len(Senders); the fan-out path is byte-identical to
// UDPFlood/LongTCP-style individual attachment by construction (it is
// the same code path). A fleet attached in aggregate refuses live deploy
// mutations too. Attack controllers (AttackSpec) never aggregate:
// adaptive strategies address senders individually by design.
type FleetSpec struct {
	// Count is the total modeled sender population of the fleet.
	Count int
	// Senders are the attachment host indices within Group. In
	// aggregate mode Count must divide evenly among them.
	Senders []int
	Group   int
	// RateBps is the PER-MODELED-SENDER offered load (0 = 1 Mbps).
	RateBps int64
	// Attacker marks the fleet hostile: meters count it as attack
	// traffic and its senders join the deny set when the scenario sets
	// DenyAttackers.
	Attacker bool
	// Exact forces per-sender fan-out (requires Count == len(Senders)).
	Exact bool
}

func (w FleetSpec) span() (string, int, int) { return "FleetSpec", w.Group, maxIndex(w.Senders) }

func (w FleetSpec) attach(env *scenarioEnv) error {
	if w.Count <= 0 {
		return fmt.Errorf("FleetSpec: Count must be positive, got %d", w.Count)
	}
	if len(w.Senders) == 0 {
		return fmt.Errorf("FleetSpec: no attachment senders listed")
	}
	spec := floodSpec{
		senders: w.Senders, group: w.Group, rate: w.RateBps,
		legit: !w.Attacker, kind: "FleetSpec",
	}
	if w.Exact || env.sc.deploysMidRun() {
		if w.Count == len(w.Senders) {
			return attachFlood(env, spec)
		}
		if !w.Exact {
			return fmt.Errorf("FleetSpec: Count=%d on %d attachment senders: %w", w.Count, len(w.Senders), errFleetDeploy)
		}
		return fmt.Errorf("FleetSpec: exact fan-out required because Exact is set, but Count=%d != %d attachment senders",
			w.Count, len(w.Senders))
	}
	if w.Count%len(w.Senders) != 0 {
		return fmt.Errorf("FleetSpec: Count %d does not divide evenly among %d attachment senders",
			w.Count, len(w.Senders))
	}
	spec.weight = w.Count / len(w.Senders)
	env.fleetAggregate = true
	return attachFlood(env, spec)
}

// RequestFlood attaches the request-channel attack source of §6.3.1:
// request packets blasted at a fixed priority level toward the group's
// victim. With Strategic set, the level is computed from the flood
// population and bottleneck capacity — the highest level whose aggregate
// admitted traffic still saturates the request channel. Flood senders
// join the victim's deny set when the scenario sets DenyAttackers.
type RequestFlood struct {
	Senders []int
	Group   int
	RateBps int64
	// Level is the request-packet priority level.
	Level uint8
	// Strategic overrides Level with the §6.3.1 attack strategy.
	Strategic bool
}

func (w RequestFlood) span() (string, int, int) { return "RequestFlood", w.Group, maxIndex(w.Senders) }

func (w RequestFlood) attach(env *scenarioEnv) error {
	grp, err := env.group(w.Group, "RequestFlood")
	if err != nil {
		return err
	}
	victim, err := groupVictim(grp, "RequestFlood")
	if err != nil {
		return err
	}
	rate := w.RateBps
	if rate <= 0 {
		rate = 1_000_000
	}
	level := w.Level
	if w.Strategic {
		if len(env.graph.Bottlenecks()) == 0 {
			return fmt.Errorf("RequestFlood: Strategic needs a topology with a tagged bottleneck link")
		}
		level = attack.StrategicRequestLevel(len(w.Senders), env.bottleneckBps())
	}
	env.ensureListener(w.Group)
	for _, idx := range w.Senders {
		h, err := groupSender(grp, idx, "RequestFlood")
		if err != nil {
			return err
		}
		env.denySet[h.ID] = true
		flow := env.flowFrom(h)
		f := transport.NewRequestFlooder(h.Host, victim.ID, flow, rate, level)
		env.stoppers = append(env.stoppers, f)
		f.Start()
	}
	return nil
}

// AttackSpec attaches an adaptive attack workload: every listed sender
// is driven by a strategy resolved by name from the attack registry
// ("flood", "onoff-sync", "request-prio", "replay", "legacy-flood", or
// any RegisterAttack registration). Strategies decide per control tick
// how fast each sender transmits, observe the feedback the network
// returns, and may craft each packet's channel, priority and presented
// feedback — the §6.3 strategic adversaries as first-class workloads.
// Attack senders count as attackers for the goodput probes; victim-bound
// senders join the deny set when the scenario sets DenyAttackers.
type AttackSpec struct {
	// Strategy is the attack-registry name; empty means "flood".
	Strategy string
	Senders  []int
	Group    int
	// RateBps is the per-sender attack rate (0 = the paper's 1 Mbps).
	RateBps int64
	// ToColluders aims the attack at the group's colluder hosts
	// (round-robin) instead of the victim — the colluding receivers of
	// §6.3.2, who dutifully return feedback and are never denied.
	ToColluders bool
	// Params sets the strategy's tunable parameters by name (its
	// registered ParamSpecs; -list-attacks prints them). nil keeps every
	// default. The adversarial search drives this field; unknown keys or
	// out-of-range values fail the build with the strategy and key named.
	Params map[string]float64
}

func (w AttackSpec) span() (string, int, int) {
	return "AttackSpec", w.Group, maxIndex(w.Senders)
}

func (w AttackSpec) attach(env *scenarioEnv) error {
	name := w.Strategy
	if name == "" {
		name = "flood"
	}
	grp, err := env.group(w.Group, "AttackSpec")
	if err != nil {
		return err
	}
	if w.ToColluders && len(grp.Colluders) == 0 {
		return fmt.Errorf("AttackSpec(%s): topology has no colluder hosts in group %d (set ColluderASes)", name, w.Group)
	}
	if !w.ToColluders {
		if _, err := groupVictim(grp, "AttackSpec"); err != nil {
			return err
		}
	}
	// One controller (and one strategy instance) per shard owning attack
	// senders: each ticks on its own engine, so crafted traffic and
	// feedback observation stay shard-local. The in-tree strategies keep
	// no cross-sender mutable state — population-level choices derive
	// from the shared clock, the workload-wide Attackers count and the
	// workload-global sender Index — so splitting the population across
	// controllers leaves every sender's behavior identical to the
	// single-controller run. One shard has exactly one controller.
	mkCtrl := func(eng *Engine) (*attack.Controller, error) {
		aenv := &attack.Env{
			Eng:       eng,
			Attackers: len(w.Senders),
		}
		if len(env.graph.Bottlenecks()) > 0 {
			aenv.BottleneckBps = env.bottleneckBps()
		}
		strat, err := attack.Build(name, attack.BuildOptions{
			RateBps: w.RateBps,
			Env:     aenv,
			Params:  w.Params,
		})
		if err != nil {
			return nil, err
		}
		return attack.NewController(strat, aenv), nil
	}
	// Each controller reserves its shard's share of the population.
	perShard := make([]int, len(env.sh.engines))
	for _, idx := range w.Senders {
		if h, err := groupSender(grp, idx, "AttackSpec"); err == nil {
			perShard[env.sh.shardOf(h.ID)]++
		}
	}
	env.reserveMeters(len(w.Senders))
	env.sinks.Reserve(len(w.Senders))
	ctrls := make([]*attack.Controller, len(env.sh.engines))
	for k, idx := range w.Senders {
		h, err := groupSender(grp, idx, "AttackSpec")
		if err != nil {
			return err
		}
		dstHost := grp.Victim
		if w.ToColluders {
			dstHost = grp.Colluders[k%len(grp.Colluders)]
		} else {
			env.denySet[h.ID] = true
		}
		sh := env.sh.shardOf(h.ID)
		ctrl := ctrls[sh]
		if ctrl == nil {
			if ctrl, err = mkCtrl(h.Host.Network().Eng); err != nil {
				return err
			}
			ctrl.Reserve(perShard[sh])
			ctrls[sh] = ctrl
		}
		flow := env.flowFrom(h)
		sink := env.newSink(dstHost, flow)
		env.addMeter(dstHost, true, 1, &sink.Bytes)
		// Index must be the sender's position in the workload list, not
		// in its shard's controller: index-dependent strategies (the
		// legacy_frac split) must make the same per-sender choice no
		// matter how the population is partitioned.
		ctrl.AddSender(h.Host, dstHost.ID, flow).Index = k
	}
	env.recordAttack(attack.Canonical(name))
	var started []*attack.Controller
	for sh := range env.sh.engines {
		if ctrl := ctrls[sh]; ctrl != nil {
			env.stoppers = append(env.stoppers, ctrl)
			ctrl.Start()
			started = append(started, ctrl)
		}
	}
	// Register the workload's controllers (in shard order) with the
	// control plane, so attack mutations can address this workload by its
	// AttackSpec declaration index.
	env.attackCtrls = append(env.attackCtrls, started)
	return nil
}
