package netfence

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"netfence/internal/attack"
	"netfence/internal/defense"
	"netfence/internal/netsim"
	"netfence/internal/packet"
)

// Mutation is one scheduled control-plane change of a time-varying
// scenario: a link degradation or restoration, an attack toggle or
// re-parameterization, or a deployment-plan change. Mutations are
// declared in Scenario.Timeline (the scripted form) or delivered
// mid-run through Instance.Apply (the serve-mode control endpoint) —
// both take the same code path, applied at a control point where every
// event before the mutation instant has executed and no event at or
// after it has, on the single engine exactly as on every shard count.
// A scripted Timeline is therefore byte-reproducible, and a live
// mutation applied at the same simulated instant, or delivered ahead of
// it to wait in the timeline, reproduces it.
type Mutation struct {
	// At is the simulated instant the mutation takes effect; it must be
	// positive and at most the scenario Duration.
	At Time

	// Exactly one of the following must be set.

	// Link degrades or restores a bottleneck link.
	Link *LinkMutation
	// Attack toggles or re-parameterizes an attack workload.
	Attack *AttackMutation
	// Deploy switches the active deployment plan.
	Deploy *DeployMutation
}

// LinkMutation changes a bottleneck link's capacity and/or propagation
// delay at runtime — the paper's closed-loop premise made testable: the
// policers must re-converge when the congestion they police moves.
type LinkMutation struct {
	// Bottleneck indexes the topology's bottleneck links in declaration
	// order (0 = the first; the dumbbell's only one).
	Bottleneck int
	// RateBps sets the link capacity; 0 keeps the current rate.
	RateBps int64
	// Delay sets the propagation delay; 0 keeps the current delay. On a
	// partitioned run a delay below the partition lookahead on a
	// cut link is rejected — it would break conservative synchronization.
	Delay Time
	// Restore resets rate and delay to their build-time values (applied
	// before any explicit RateBps/Delay in the same mutation).
	Restore bool
}

// AttackAction selects what an AttackMutation does to its controllers.
type AttackAction string

const (
	// AttackStop halts the workload's attack controllers: pacing stops,
	// decision ticks stop, the senders' shims unwrap.
	AttackStop AttackAction = "stop"
	// AttackStart (re)starts the workload's attack controllers.
	AttackStart AttackAction = "start"
	// AttackSetRate overrides the per-sender rate of every strategy
	// decision (RateBps = 0 clears the override).
	AttackSetRate AttackAction = "rate"
)

// AttackMutation toggles or re-parameterizes one AttackSpec workload's
// controllers (on every shard owning its senders).
type AttackMutation struct {
	// Workload indexes the scenario's AttackSpec workloads in
	// declaration order (other workload kinds do not count).
	Workload int
	Action   AttackAction
	// RateBps is the per-sender rate for AttackSetRate.
	RateBps int64
}

// DeployMutation switches the scenario's active deployment plan: source
// ASes joining the plan arm the defense (installing it on first
// participation, on the shard owning the AS), and ASes leaving it
// disarm — their access routers stop policing and their hosts shed the
// defense shim, so their traffic is demoted to the legacy channel
// exactly like a build-time legacy AS's. A run whose FleetSpec attached
// in aggregate refuses it (set FleetSpec.Exact).
type DeployMutation struct {
	// Deployment is the new plan (DeployFraction, DeployMap, or
	// FullDeployment).
	Deployment Deployment
}

// kindCount returns how many of the mutation's kind slots are set.
func (m Mutation) kindCount() int {
	n := 0
	if m.Link != nil {
		n++
	}
	if m.Attack != nil {
		n++
	}
	if m.Deploy != nil {
		n++
	}
	return n
}

// Kind names the mutation's kind, for diagnostics and cell naming.
func (m Mutation) Kind() string {
	switch {
	case m.Link != nil:
		return "link"
	case m.Attack != nil:
		return "attack"
	case m.Deploy != nil:
		return "deploy"
	}
	return "empty"
}

// Validate checks the mutation's self-contained invariants — everything
// that needs no built topology. Index ranges and the sharded cut-link
// lookahead bound are checked against the built instance by Apply (and
// for a Scenario.Timeline, at Build).
func (m Mutation) Validate() error {
	if m.kindCount() != 1 {
		return fmt.Errorf("mutation must set exactly one of Link, Attack, Deploy (got %d)", m.kindCount())
	}
	if m.At <= 0 {
		return fmt.Errorf("%s mutation: At must be positive, got %v", m.Kind(), m.At)
	}
	switch {
	case m.Link != nil:
		l := m.Link
		if l.Bottleneck < 0 {
			return fmt.Errorf("link mutation: Bottleneck index %d is negative", l.Bottleneck)
		}
		if l.RateBps < 0 {
			return fmt.Errorf("link mutation: RateBps %d is negative", l.RateBps)
		}
		if l.Delay < 0 {
			return fmt.Errorf("link mutation: Delay %v is negative", l.Delay)
		}
		if !l.Restore && l.RateBps == 0 && l.Delay == 0 {
			return fmt.Errorf("link mutation: no effect (set RateBps, Delay, or Restore)")
		}
	case m.Attack != nil:
		a := m.Attack
		if a.Workload < 0 {
			return fmt.Errorf("attack mutation: Workload index %d is negative", a.Workload)
		}
		switch a.Action {
		case AttackStop, AttackStart:
		case AttackSetRate:
			if a.RateBps < 0 {
				return fmt.Errorf("attack mutation: RateBps %d is negative", a.RateBps)
			}
		default:
			return fmt.Errorf("attack mutation: unknown action %q (stop|start|rate)", a.Action)
		}
	}
	return nil
}

// errFleetDeploy is why a deploy mutation and a FleetSpec attached in
// aggregate exclude each other, scripted or live.
var errFleetDeploy = errors.New("deployment mutations change who polices each sender, which FleetSpec aggregation cannot track: set Exact, with Count equal to the attachment senders")

// linkParams is a bottleneck's control-plane record: its build-time
// delay and every rate it has run at, from the instant each took effect.
// The delay and the first rate are the Restore target; the rates give
// the capacity Result.Utilization divides by.
type linkParams struct {
	delay Time
	rates []rateStep
}

// rateStep is a bottleneck rate and the instant Build or a link
// mutation set it.
type rateStep struct {
	at   Time
	rate int64
}

// capacityBits integrates the link's rate over [from, to].
func (lp *linkParams) capacityBits(from, to Time) float64 {
	bits := 0.0
	for k, st := range lp.rates {
		end := to
		if k+1 < len(lp.rates) {
			end = min(end, lp.rates[k+1].at)
		}
		if start := max(st.at, from); end > start {
			bits += float64(st.rate) * (end - start).Seconds()
		}
	}
	return bits
}

// Now returns the instant the instance has simulated up to.
func (in *Instance) Now() Time { return in.env.sh.coord.Now() }

// Advance drives the simulation to exactly t without executing the
// events scheduled at t itself — the control-point step of a segmented
// run. On the way it stops at each timeline instant at or before t and
// applies that instant's mutations in the order they joined it (the
// scripted Timeline in declaration order, then live deliveries), so
// after it returns, Apply inserts live mutations after every pre-t
// effect and every mutation due by t, and before every time-t event, on
// the single engine exactly as on every shard count. t clamps to
// [Now, Duration]; advancing a finished instance is a no-op.
func (in *Instance) Advance(t Time) {
	if in.finished {
		return
	}
	t = min(t, in.Scenario.Duration)
	for len(in.timeline) > 0 && in.timeline[0].At <= t {
		m := in.timeline[0]
		in.timeline = in.timeline[1:]
		in.runBefore(m.At)
		in.applyNow(m)
	}
	in.runBefore(t)
}

// runBefore drives the shards to the control point at t, if t is ahead.
func (in *Instance) runBefore(t Time) {
	if t > in.Now() {
		in.env.sh.coord.RunBefore(t)
	}
}

// Apply delivers mutations to the run, the one path the scripted
// Timeline (which Build loads through it) and the serve mode's live
// control endpoint share. A mutation whose At is at or before Now
// applies at once, at the current instant (normally a control point
// established by Advance); a later one joins the timeline after every
// entry already at its instant, and Advance applies it there. Every
// mutation is validated before any is applied or scheduled.
func (in *Instance) Apply(ms ...Mutation) error {
	if in.finished {
		return fmt.Errorf("netfence: Apply on a finished instance")
	}
	for i := range ms {
		if err := in.checkMutation(ms[i]); err != nil {
			return fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	now := in.Now()
	for _, m := range ms {
		if m.At <= now {
			in.applyNow(m)
			continue
		}
		i := sort.Search(len(in.timeline), func(i int) bool { return in.timeline[i].At > m.At })
		in.timeline = slices.Insert(in.timeline, i, m)
	}
	return nil
}

// checkMutation validates a mutation against the built topology:
// structural invariants, index ranges, and the sharded cut-link
// lookahead bound.
func (in *Instance) checkMutation(m Mutation) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.At > in.Scenario.Duration {
		return fmt.Errorf("%s mutation: At %v is beyond the scenario Duration %v", m.Kind(), m.At, in.Scenario.Duration)
	}
	env := in.env
	switch {
	case m.Link != nil:
		if m.Link.Bottleneck >= len(env.graph.Bottlenecks()) {
			return fmt.Errorf("link mutation: Bottleneck index %d out of range (topology tags %d)", m.Link.Bottleneck, len(env.graph.Bottlenecks()))
		}
		// One shard has no cut link and a zero lookahead.
		if sh := env.sh; m.Link.Delay > 0 && m.Link.Delay < sh.lookahead {
			l := env.graph.Bottlenecks()[m.Link.Bottleneck]
			if sh.shardOf(l.From.ID) != sh.shardOf(l.To.ID) {
				return fmt.Errorf("link mutation: Delay %v below the partition lookahead %v on cut bottleneck %d breaks conservative synchronization",
					m.Link.Delay, sh.lookahead, m.Link.Bottleneck)
			}
		}
	case m.Attack != nil:
		if m.Attack.Workload >= len(env.attackCtrls) {
			return fmt.Errorf("attack mutation: Workload index %d out of range (scenario declares %d AttackSpec workloads)", m.Attack.Workload, len(env.attackCtrls))
		}
	case m.Deploy != nil:
		if env.fleetAggregate {
			return fmt.Errorf("deploy mutation on a FleetSpec attached in aggregate: %w", errFleetDeploy)
		}
		if _, _, err := m.Deploy.Deployment.plan(env.graph.SourceASes()); err != nil {
			return fmt.Errorf("deploy mutation: %w", err)
		}
	}
	return nil
}

// applyNow applies a validated mutation at the current instant. Whatever
// it schedules is keyed by the scheduling model entity alone, so it
// lands identically on every engine although application runs outside
// any event callback.
func (in *Instance) applyNow(m Mutation) {
	switch {
	case m.Link != nil:
		in.applyLink(m.Link)
	case m.Attack != nil:
		in.applyAttack(m.Attack)
	case m.Deploy != nil:
		in.applyDeploy(m.Deploy)
	}
}

// applyLink changes the target bottleneck's rate and delay, at a control
// point, where no shard is writing the link. It changes no route.
func (in *Instance) applyLink(lm *LinkMutation) {
	env := in.env
	l, lp := env.graph.Bottlenecks()[lm.Bottleneck], &env.links[lm.Bottleneck]
	rate, delay := int64(0), Time(0)
	if lm.Restore {
		rate, delay = lp.rates[0].rate, lp.delay
	}
	if lm.RateBps > 0 {
		rate = lm.RateBps
	}
	if lm.Delay > 0 {
		delay = lm.Delay
	}
	if rate > 0 {
		l.SetRate(rate)
		lp.rates = append(lp.rates, rateStep{at: in.Now(), rate: rate})
	}
	if delay > 0 {
		l.SetDelay(delay)
	}
}

// applyAttack drives the workload's controllers — one per shard owning
// attack senders; other shards have none and schedule nothing.
func (in *Instance) applyAttack(am *AttackMutation) {
	for _, c := range in.env.attackCtrls[am.Workload] {
		switch am.Action {
		case AttackStop:
			c.Stop()
		case AttackStart:
			c.Start()
		case AttackSetRate:
			c.SetRate(am.RateBps)
		}
	}
}

// applyDeploy diffs the new plan against the active one: source ASes
// leaving it disarm, ASes joining it arm.
func (in *Instance) applyDeploy(dm *DeployMutation) {
	env := in.env
	plan, frac, err := dm.Deployment.plan(env.graph.SourceASes())
	if err != nil {
		// checkMutation validated the plan; an error here is a bug.
		panic(fmt.Sprintf("netfence: deploy mutation plan failed after validation: %v", err))
	}
	was := env.plan
	env.disarm(func(as packet.ASID) bool { return was.Participates(as) && !plan.Participates(as) })
	env.arm(func(as packet.ASID) bool { return !was.Participates(as) && plan.Participates(as) })
	env.plan, env.deployed = plan, frac
}

// arm enables the defense on every access router and host of the ASes
// in selects, each with the system of the shard owning it: Build arms
// the plan's participants, a deploy mutation the ASes joining its plan.
// A node armed for the first time installs through the system's
// ProtectAccess and AttachHost; a re-join after a disarm restores the
// saved ingress hook and shim instead, so long-lived per-router state
// (keyrings, rotation tickers) is not duplicated.
func (env *scenarioEnv) arm(in func(packet.ASID) bool) {
	env.graph.Roles(in, func(r *netsim.Node) {
		if saved, ok := env.savedIngress[r]; ok {
			r.Ingress = saved
			delete(env.savedIngress, r)
		} else {
			env.sh.system(r).ProtectAccess(r)
		}
	}, func(h *netsim.Node, victim bool) {
		pol := defense.Policy{}
		if victim {
			pol = env.deny
		}
		env.armHost(h, pol)
	})
}

// armHost installs or restores a host's defense shim, preserving a live
// attack wrapper: the attack Sender stays outermost (crafted packets
// keep bypassing the honest stack) and the defense shim splices in
// underneath it.
func (env *scenarioEnv) armHost(h *netsim.Node, pol defense.Policy) {
	wrapper, _ := h.Host.Shim.(*attack.Sender)
	saved, ok := env.savedShims[h]
	if !ok {
		env.sh.system(h).AttachHost(h, pol)
		if wrapper != nil {
			wrapper.SetInner(h.Host.Shim)
			h.Host.Shim = wrapper
		}
		return
	}
	delete(env.savedShims, h)
	if wrapper != nil {
		wrapper.SetInner(saved)
	} else {
		h.Host.Shim = saved
	}
}

// disarm turns the ASes in selects legacy: access routers stop policing
// (ingress hooks saved and cleared; the rotation timers keep ticking, so
// a re-armed router holds the keys it would have held) and hosts shed
// the defense shim, saved from under any live attack wrapper, whose
// crafted traffic now takes the legacy path.
func (env *scenarioEnv) disarm(in func(packet.ASID) bool) {
	env.graph.Roles(in, func(r *netsim.Node) {
		env.savedIngress[r] = r.Ingress
		r.Ingress = nil
	}, func(h *netsim.Node, _ bool) {
		if wrapper, ok := h.Host.Shim.(*attack.Sender); ok {
			env.savedShims[h] = wrapper.Inner()
			wrapper.SetInner(nil)
		} else {
			env.savedShims[h] = h.Host.Shim
			h.Host.Shim = nil
		}
	})
}

// Finish completes the run: it drives the simulation to Duration
// (applying the rest of the scripted Timeline and executing the final
// instant's batch), stops the workloads, tears down the shard workers,
// and collects every probe into the Result. Repeat calls return a
// freshly collected Result without re-driving.
func (in *Instance) Finish() *Result {
	if !in.finished {
		in.Advance(in.Scenario.Duration)
		in.finished = true
		sh := in.env.sh
		sh.coord.RunUntil(in.Scenario.Duration)
		sh.coord.Stop()
		for _, st := range in.env.stoppers {
			st.Stop()
		}
	}
	return in.collect()
}

// Stop abandons an unfinished run, tearing down the shard workers
// without driving the simulation further (serve-mode job cancellation).
// The instance cannot be advanced afterwards; collected state (the
// timeseries so far) remains readable.
func (in *Instance) Stop() {
	if in.finished {
		return
	}
	in.finished = true
	in.env.sh.coord.Stop()
}

// Series returns the timeseries samples collected so far by a
// TimeseriesProbe (nil without one): the serve mode's streaming source.
// The shards' rows merge consistently at any control point — every shard
// has ticked the same instants once the coordinator reaches a barrier —
// and a repeat read returns the same samples without merging again.
func (in *Instance) Series() []Sample {
	return in.env.mergedSeries()
}
