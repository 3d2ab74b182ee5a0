// Package attack is the adaptive-adversary subsystem: the attack
// strategies of the §6.3 evaluation, resolved by name from a static
// table and driven by the simulation engine.
//
// NetFence's claim (§3.4, Theorem 1) is not that it stops one flood but
// that it bounds the damage of *any* sender strategy. The §6.3
// evaluation therefore pits the system against strategic attackers:
// request-level escalation, on-off bursts phase-locked to the AIMD
// control interval, feedback replay, and legacy-channel floods under
// partial deployment. This package makes those adversaries first-class:
// a Strategy decides per control tick how fast each attack sender
// transmits, observes the congestion policing feedback the network
// returns (the attacker's window into the policer's state), and may
// craft each outgoing packet's channel, priority and presented feedback.
//
// A Controller owns one workload's senders: it wraps each sender host's
// deployed shim so crafted packets bypass the honest stack while honest
// packets (and the reverse feedback path) keep working, paces emission
// at the strategy's chosen rate, and re-consults the strategy on a
// shared tick so synchronized strategies stay phase-locked.
package attack

import (
	"slices"

	"netfence/internal/core"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/slab"
)

// Env is the scenario view an adaptive strategy keys its decisions off:
// what the attacker population knows about the network it is attacking.
// NetFence's public protocol parameters (the control interval
// core.Ilim, the request-channel share core.RequestCapFrac, the token
// rates and priority levels of internal/ratelimit) are constants, so a
// strategy reads them directly.
type Env struct {
	// Eng is the driving simulation engine.
	Eng *sim.Engine
	// Attackers is the strategy's sender population.
	Attackers int
	// BottleneckBps is the targeted bottleneck's capacity (0 when the
	// topology exposes none; capacity-derived strategies then error at
	// build time).
	BottleneckBps int64
}

// Decision is a strategy's transmission plan until the next tick.
type Decision struct {
	// RateBps is the send rate; 0 or negative pauses the sender.
	RateBps int64
	// PktSize is the on-wire packet size (0 = full-size data packets).
	PktSize int32
}

// Strategy is one adaptive attack. A single instance drives every
// sender of a workload (so population-level choices are shared and
// bursts synchronize); per-sender state lives on the Sender, in its
// State slot. Its Controller re-decides once per AIMD control interval
// core.Ilim, so every strategy is phase-locked to the policer.
type Strategy interface {
	// Name is the canonical strategy name, echoed in results.
	Name() string
	// Start initializes one sender before traffic begins and returns
	// its first Decision.
	Start(s *Sender) Decision
	// Tick re-decides a sender's Decision once per control interval.
	Tick(s *Sender) Decision
	// Observe hands the strategy congestion policing feedback returned
	// to a sender — the attacker's inference surface over the policer's
	// state (the Sender also tallies it in LastFB/Ups/Downs).
	Observe(s *Sender, fb packet.Feedback)
	// Craft decorates an outgoing packet (channel, priority, presented
	// feedback). Returning false defers to the sender host's deployed
	// shim — the honest path.
	Craft(s *Sender, p *packet.Packet) bool
}

// Sender is one attack sender under a Controller: the host it emits
// from, the destination it floods, and the feedback it has observed. It
// doubles as the host's shim so the strategy sees both directions of
// every packet.
type Sender struct {
	Host *netsim.Host
	Dst  packet.NodeID
	Flow packet.FlowID
	// Index is the sender's position in the workload's sender list.
	Index int

	// LastFB is the most recent feedback returned by the receiver; Ups
	// and Downs count observed L-up/L-down actions — the raw material
	// for policer-state inference.
	LastFB   packet.Feedback
	HasFB    bool
	sending  bool
	crafting bool
	Ups      uint32
	Downs    uint32
	// Sent counts packets emitted.
	Sent uint64
	// State is the strategy's per-sender slot (e.g. the replay cache).
	State any

	ctrl  *Controller
	inner netsim.Shim
	dec   Decision
	org   sim.Origin
	ev    sim.Event // owned inter-packet pacing event
	// mfb is the most recent returned Appendix B.1 multi-bottleneck
	// header, made on the first one (see LastMFB).
	mfb *packet.MultiHeader
}

// Env returns the scenario view of the sender's controller.
func (s *Sender) Env() *Env { return s.ctrl.env }

// LastMFB returns the most recent returned Appendix B.1 multi-bottleneck
// header and whether one has arrived — MultiFeedback configurations
// return feedback there instead of in the single-feedback header.
// Observe fires only for the latter; its per-link actions still feed
// Ups/Downs.
func (s *Sender) LastMFB() (packet.MultiHeader, bool) {
	if s.mfb == nil {
		return packet.MultiHeader{}, false
	}
	return *s.mfb, true
}

// senderPace dispatches the sender's owned pacing event.
type senderPace Sender

func (h *senderPace) OnEvent(sim.Time, any) { (*Sender)(h).sendNext() }

// Egress implements netsim.Shim: controller-emitted packets are offered
// to the strategy's Craft hook first; packets it declines — and all
// other traffic from this host — take the deployed shim's honest path.
func (s *Sender) Egress(p *packet.Packet) {
	if s.crafting && s.ctrl.strategy.Craft(s, p) {
		return
	}
	if s.inner != nil {
		s.inner.Egress(p)
	}
}

// Ingress implements netsim.Shim: returned feedback is recorded and
// handed to the strategy before the deployed shim sees the packet.
func (s *Sender) Ingress(p *packet.Packet) bool {
	if p.Ret.Present {
		s.LastFB = feedback.ToPresented(p.Ret)
		s.HasFB = true
		if s.LastFB.IsMon() {
			if s.LastFB.Action == packet.ActDecr {
				s.Downs++
			} else {
				s.Ups++
			}
		}
		s.ctrl.strategy.Observe(s, s.LastFB)
	}
	if x := p.Ext; x != nil && x.RetMFB.Present {
		if s.mfb == nil {
			s.mfb = new(packet.MultiHeader)
		}
		*s.mfb = x.RetMFB
		for _, it := range x.RetMFB.Items {
			if it.Action == packet.ActDecr {
				s.Downs++
			} else {
				s.Ups++
			}
		}
	}
	if s.inner != nil {
		return s.inner.Ingress(p)
	}
	return p.Proto != packet.ProtoFeedback
}

// apply installs a new Decision, starting, pausing or re-pacing the
// sending loop. A rate change while sending must reschedule the pending
// inter-packet event: a slow trickle's gap can span whole on-phases, and
// leaving it queued would swallow the burst the next Decision ordered.
func (s *Sender) apply(d Decision) {
	if d.PktSize <= 0 {
		d.PktSize = packet.SizeData
	}
	prev := s.dec
	s.dec = d
	if d.RateBps <= 0 {
		s.ev.Cancel()
		s.sending = false
		return
	}
	if !s.sending {
		s.sending = true
		s.sendNext()
		return
	}
	if d.RateBps != prev.RateBps || d.PktSize != prev.PktSize {
		s.ev.Cancel()
		s.sendNext()
	}
}

func (s *Sender) sendNext() {
	if !s.ctrl.running || s.dec.RateBps <= 0 {
		s.sending = false
		return
	}
	s.emit()
	s.org.ScheduleEvent(&s.ev, s.org.Now()+sim.TxTime(int(s.dec.PktSize), s.dec.RateBps), (*senderPace)(s), nil)
}

// emit sends one packet through the host stack; the crafting flag routes
// it to the strategy's Craft hook inside this sender's shim.
func (s *Sender) emit() {
	payload := s.dec.PktSize - packet.SizeIPUDP - packet.SizeNetFenceMx - packet.SizePassport
	if payload < 0 {
		payload = 0
	}
	p := s.Host.NewPacket()
	p.Dst = s.Dst
	p.Flow = s.Flow
	p.Kind = packet.KindRegular
	p.Proto = packet.ProtoUDP
	p.Size = s.dec.PktSize
	p.Payload = payload
	s.crafting = true
	s.Host.Send(p)
	s.crafting = false
	s.Sent++
}

// Inner returns the shim the sender wraps (the deployed defense layer,
// or nil on legacy hosts). Deployment mutations use it to splice the
// defense shim in or out from underneath a live attack wrapper.
func (s *Sender) Inner() netsim.Shim { return s.inner }

// SetInner replaces the wrapped shim. See Inner.
func (s *Sender) SetInner(sh netsim.Shim) { s.inner = sh }

// Controller drives one attack workload: it wraps each sender host's
// shim, paces emission per the strategy's Decisions, and re-consults the
// strategy on a shared tick. Construct with NewController, add senders,
// then Start; Stop halts all senders (scenario teardown, or an attack
// off-switch mid-run — a later Start resumes cleanly).
type Controller struct {
	strategy Strategy
	env      *Env
	senders  []*Sender
	// carve makes the senders, which live as long as the controller.
	carve   slab.Slab[Sender]
	ticker  *sim.Ticker
	running bool
	// rateOverride, when positive, pins every Decision's RateBps — the
	// control plane's re-parameterization knob (see SetRate).
	rateOverride int64
}

// NewController creates a controller for one strategy instance.
func NewController(strategy Strategy, env *Env) *Controller {
	return &Controller{strategy: strategy, env: env}
}

// decide routes a strategy decision through the rate override.
func (c *Controller) decide(d Decision) Decision {
	if c.rateOverride > 0 {
		d.RateBps = c.rateOverride
	}
	return d
}

// SetRate overrides the per-sender rate of every future Decision
// (0 restores the strategy's own rates). While running, each sender's
// current decision is re-applied immediately, so the new rate takes
// effect at the call instant rather than the next tick. Call only at a
// scenario control point (no event executing).
func (c *Controller) SetRate(bps int64) {
	if bps < 0 {
		bps = 0
	}
	c.rateOverride = bps
	if !c.running {
		return
	}
	for _, s := range c.senders {
		d := s.dec
		if bps > 0 {
			d.RateBps = bps
		} else {
			d = c.strategy.Tick(s)
		}
		s.apply(d)
	}
}

// Reserve readies the next n AddSender calls: the last chunk their
// senders are carved from ends at exactly n, and the sender list grows
// once.
func (c *Controller) Reserve(n int) {
	c.carve.Reserve(n)
	c.senders = slices.Grow(c.senders, n)
}

// AddSender attaches one attack sender flooding dst on flow. Call
// before Start.
func (c *Controller) AddSender(host *netsim.Host, dst packet.NodeID, flow packet.FlowID) *Sender {
	s := c.carve.New()
	*s = Sender{
		Host:  host,
		Dst:   dst,
		Flow:  flow,
		Index: len(c.senders),
		ctrl:  c,
		org:   host.Node.NewOrigin(),
	}
	c.senders = append(c.senders, s)
	return s
}

// Start wraps every sender's shim, applies the strategy's initial
// Decisions, and begins the shared decision tick.
func (c *Controller) Start() {
	if c.running {
		return
	}
	c.running = true
	for _, s := range c.senders {
		// Wrap whatever the deployed defense installed (nil on legacy
		// or baseline hosts): crafted packets bypass it, everything
		// else — including the reverse feedback path — still flows
		// through it.
		s.inner = s.Host.Shim
		s.Host.Shim = s
	}
	for _, s := range c.senders {
		s.apply(c.decide(c.strategy.Start(s)))
	}
	// The decision tick is scenario-level control: it is keyed from the
	// engine's own origin, and each sender paces from its host's.
	c.ticker = c.env.Eng.Tick(core.Ilim, func() {
		for _, s := range c.senders {
			s.apply(c.decide(c.strategy.Tick(s)))
		}
	})
}

// Stop halts the decision tick and every sender's pacing loop, and
// unwraps the senders' shims so a later Start re-wraps cleanly instead
// of wrapping a Sender around itself.
func (c *Controller) Stop() {
	if !c.running {
		return
	}
	c.running = false
	c.ticker.Stop()
	for _, s := range c.senders {
		s.ev.Cancel()
		s.sending = false
		if s.Host.Shim == netsim.Shim(s) {
			s.Host.Shim = s.inner
		}
		s.inner = nil
	}
}
