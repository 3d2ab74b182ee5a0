package netfence

import (
	"fmt"
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
// mutation applied at the same simulated instant reproduces it.
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
// participation, on the shard owning the AS), and ASes leaving it disarm — their access routers stop
// policing and their hosts shed the defense shim, so their traffic is
// demoted to the legacy channel exactly like a build-time legacy AS's.
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

// linkParams records a bottleneck link's build-time rate and delay, the
// Restore target.
type linkParams struct {
	rate  int64
	delay Time
}

// deployState is the run's deployment disarm/re-arm state: which source
// ASes ever installed the defense, and the ingress hooks and host shims
// saved while an AS is disarmed (on the one shard owning the AS).
type deployState struct {
	installed map[packet.ASID]bool
	ingress   map[*netsim.Node]func(*packet.Packet, *netsim.Link) bool
	shims     map[*netsim.Node]netsim.Shim
}

// primeControl prepares the built instance for timeline and live
// mutations: it records every bottleneck's build-time parameters,
// compiles the initial deployment plan into the arm state, and
// validates the scenario Timeline against the built topology. Build
// calls it on every instance, so serve-mode jobs can mutate scenarios
// that declared no Timeline at all.
func (in *Instance) primeControl() error {
	env := in.env
	for _, l := range env.bottlenecks {
		env.linkOrig = append(env.linkOrig, linkParams{rate: l.Rate, delay: l.Delay})
	}
	plan, _, err := in.Scenario.Deployment.plan(env.graph.SourceASes())
	if err != nil {
		return err
	}
	env.plan = plan
	env.deployCtl = &deployState{
		installed: map[packet.ASID]bool{},
		ingress:   map[*netsim.Node]func(*packet.Packet, *netsim.Link) bool{},
		shims:     map[*netsim.Node]netsim.Shim{},
	}
	for _, as := range env.graph.SourceASes() {
		env.deployCtl.installed[as] = plan.Participates(as)
	}
	// The timeline applies in instant order; within an instant, in
	// declaration order (stable sort). The scenario's slice is shared
	// with the caller (and across sweep cells), so sort a copy.
	if len(in.Scenario.Timeline) > 0 {
		tl := make([]Mutation, len(in.Scenario.Timeline))
		copy(tl, in.Scenario.Timeline)
		sort.SliceStable(tl, func(i, j int) bool { return tl[i].At < tl[j].At })
		for i := range tl {
			if err := in.checkMutation(tl[i]); err != nil {
				return fmt.Errorf("Timeline[%d]: %w", i, err)
			}
		}
		in.timeline = tl
	}
	return nil
}

// Now returns the instant the instance has simulated up to.
func (in *Instance) Now() Time { return in.env.sh.coord.Now() }

// Advance drives the simulation to exactly t without executing the
// events scheduled at t itself — the control-point step of a segmented
// run. On the way it stops at each scripted Timeline instant at or
// before t and applies that instant's mutations in declaration order,
// so after it returns, Apply inserts live mutations after every pre-t
// effect and every scripted mutation due by t, and before every time-t
// event, on the single engine exactly as on every shard count. t clamps
// to [Now, Duration]; advancing a finished instance is a no-op.
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

// Apply applies mutations at the current instant (normally a control
// point established by Advance). Scripted timelines and the serve
// mode's live control endpoint both land here, so the two are the same
// code path. Every mutation is validated before any is applied.
func (in *Instance) Apply(ms ...Mutation) error {
	if in.finished {
		return fmt.Errorf("netfence: Apply on a finished instance")
	}
	for i := range ms {
		if err := in.checkMutation(ms[i]); err != nil {
			return fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	in.applyNow(ms...)
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
		if m.Link.Bottleneck >= len(env.bottlenecks) {
			return fmt.Errorf("link mutation: Bottleneck index %d out of range (topology tags %d)", m.Link.Bottleneck, len(env.bottlenecks))
		}
		// One shard has no cut link and a zero lookahead.
		if sh := env.sh; m.Link.Delay > 0 && m.Link.Delay < sh.lookahead {
			l := env.bottlenecks[m.Link.Bottleneck]
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
		if _, _, err := m.Deploy.Deployment.plan(env.graph.SourceASes()); err != nil {
			return fmt.Errorf("deploy mutation: %w", err)
		}
	}
	return nil
}

// applyNow applies validated mutations at the current instant. Whatever
// they schedule is keyed by the scheduling model entity alone, so it
// lands identically on every engine although application runs outside
// any event callback.
func (in *Instance) applyNow(ms ...Mutation) {
	for _, m := range ms {
		switch {
		case m.Link != nil:
			in.applyLink(m.Link)
		case m.Attack != nil:
			in.applyAttack(m.Attack)
		case m.Deploy != nil:
			in.applyDeploy(m.Deploy)
		}
	}
}

// applyLink changes the target bottleneck's rate and delay, at a control
// point, where no shard is writing the link. It changes no route.
func (in *Instance) applyLink(lm *LinkMutation) {
	env := in.env
	l := env.bottlenecks[lm.Bottleneck]
	rate, delay := int64(0), Time(0)
	if lm.Restore {
		orig := env.linkOrig[lm.Bottleneck]
		rate, delay = orig.rate, orig.delay
	}
	if lm.RateBps > 0 {
		rate = lm.RateBps
	}
	if lm.Delay > 0 {
		delay = lm.Delay
	}
	if rate > 0 {
		l.SetRate(rate)
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

// applyDeploy diffs the new plan against the active one and arms or
// disarms each changed source AS, arming with the system of the shard
// owning its access routers and hosts.
func (in *Instance) applyDeploy(dm *DeployMutation) {
	env := in.env
	srcASes := env.graph.SourceASes()
	newPlan, frac, err := dm.Deployment.plan(srcASes)
	if err != nil {
		// checkMutation validated the plan; an error here is a bug.
		panic(fmt.Sprintf("netfence: deploy mutation plan failed after validation: %v", err))
	}
	type change struct {
		as     packet.ASID
		enable bool
	}
	var changes []change
	for _, as := range srcASes {
		was, is := env.plan.Participates(as), newPlan.Participates(as)
		if was != is {
			changes = append(changes, change{as: as, enable: is})
		}
	}
	for _, ch := range changes {
		if ch.enable {
			sh := env.sh.shardOfAS[ch.as] // a nil map on one shard: 0
			env.deployCtl.arm(env.graph, env.sh.systems[sh], env.deny, ch.as)
		} else {
			env.deployCtl.disarm(env.graph, ch.as)
		}
	}
	env.plan = newPlan
	env.deployed = frac
}

// arm (re)enables the defense on one source AS of g with sys, the
// system of the shard owning it: first participation installs through the system's
// own ProtectAccess/AttachHost paths (the same calls Graph.Deploy makes
// at build time); a re-join after a disarm restores the saved ingress
// hooks and shims instead, so long-lived per-router state (keyrings,
// rotation tickers) is not duplicated.
func (st *deployState) arm(g *Graph, sys defense.System, deny defense.Policy, as packet.ASID) {
	fresh := !st.installed[as]
	walkAS(g, as, func(r *netsim.Node) {
		if fresh {
			sys.ProtectAccess(r)
		} else if saved, ok := st.ingress[r]; ok {
			r.Ingress = saved
			delete(st.ingress, r)
		}
	}, func(h *netsim.Node, victim bool) {
		pol := defense.Policy{}
		if victim {
			pol = deny
		}
		st.armHost(sys, h, pol, fresh)
	})
	st.installed[as] = true
}

// walkAS visits one source AS's share of every role group, group by
// group: its access routers, then its senders, the group's victim and
// its colluders (victim tells the victim host apart).
func walkAS(g *Graph, as packet.ASID, router func(*netsim.Node), host func(h *netsim.Node, victim bool)) {
	groups := g.Groups()
	for gi := range groups {
		grp := &groups[gi]
		for _, r := range grp.Access {
			if r.AS == as {
				router(r)
			}
		}
		for _, h := range grp.Senders {
			if h.AS == as {
				host(h, false)
			}
		}
		if grp.Victim != nil && grp.Victim.AS == as {
			host(grp.Victim, true)
		}
		for _, c := range grp.Colluders {
			if c.AS == as {
				host(c, false)
			}
		}
	}
}

// armHost installs or restores a host's defense shim, preserving a live
// attack wrapper: the attack Sender stays outermost (crafted packets
// keep bypassing the honest stack) and the defense shim splices in
// underneath it.
func (st *deployState) armHost(sys defense.System, h *netsim.Node, pol defense.Policy, fresh bool) {
	wrapper, _ := h.Host.Shim.(*attack.Sender)
	if fresh {
		sys.AttachHost(h, pol)
		if wrapper != nil {
			wrapper.SetInner(h.Host.Shim)
			h.Host.Shim = wrapper
		}
		return
	}
	saved, ok := st.shims[h]
	if !ok {
		return
	}
	delete(st.shims, h)
	if wrapper != nil {
		wrapper.SetInner(saved)
	} else {
		h.Host.Shim = saved
	}
}

// disarm turns one source AS of g legacy:
// access routers stop policing (ingress hooks saved and cleared; the
// rotation timers keep ticking, so a re-armed router holds the keys it
// would have held) and hosts shed the defense shim (saved under any
// attack wrapper).
func (st *deployState) disarm(g *Graph, as packet.ASID) {
	walkAS(g, as, func(r *netsim.Node) {
		if _, ok := st.ingress[r]; !ok {
			st.ingress[r] = r.Ingress
		}
		r.Ingress = nil
	}, func(h *netsim.Node, _ bool) { st.disarmHost(h) })
}

// disarmHost removes a host's defense shim, keeping a live attack
// wrapper in place (its crafted traffic now takes the legacy path, the
// legacy-flood posture).
func (st *deployState) disarmHost(h *netsim.Node) {
	if wrapper, ok := h.Host.Shim.(*attack.Sender); ok {
		if _, saved := st.shims[h]; !saved {
			st.shims[h] = wrapper.Inner()
		}
		wrapper.SetInner(nil)
		return
	}
	if _, saved := st.shims[h]; !saved {
		st.shims[h] = h.Host.Shim
	}
	h.Host.Shim = nil
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
		sh.stopPipelines()
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
	in.env.sh.stopPipelines()
}

// Series returns the timeseries samples collected so far by a
// TimeseriesProbe (nil without one): the serve mode's streaming source.
// The shards' rows merge consistently at any control point — every shard
// has ticked the same instants once the coordinator reaches a barrier —
// and a repeat read returns the same samples without merging again.
func (in *Instance) Series() []Sample {
	return in.env.mergedSeries()
}
