package core

import (
	"netfence/internal/aqm"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// Bottleneck is the NetFence machinery attached to one link: the
// three-channel queue, the attack detector driving the monitoring cycle
// (§4.3.1), and the congestion policing feedback stamper (§4.3.2).
type Bottleneck struct {
	sys  *System
	link *netsim.Link
	q    *nfQueue
	det  *aqm.LossDetector
	util *aqm.UtilDetector

	monActive  bool
	monStarted sim.Time
	lastAttack sim.Time

	// prevReg detects fresh regular-channel drops when the per-AS
	// fallback replaces RED (whose own congestion clock then stops).
	prevReg     queue.Stats
	fbCongested sim.Time
}

// protect wires the bottleneck machinery onto l.
func (s *System) protect(l *netsim.Link) *Bottleneck {
	b := &Bottleneck{
		sys:  s,
		link: l,
		q:    newNFQueue(l.Rate, l.From.Network().Eng.KeyStream(l.Origin().ID())),
		det:  aqm.NewLossDetector(),
	}
	b.q.cells = l.From.Network().Cells
	b.q.net = l.From.Network()
	b.q.label = l.Label()
	if s.Cfg.UtilDetect {
		b.util = aqm.NewUtilDetector(l.Rate)
		b.util.Threshold = s.Cfg.UtilThreshold
	}
	if s.Cfg.Passport && s.Registry != nil {
		b.q.verify = func(p *packet.Packet) bool {
			if p.SrcAS == l.From.AS {
				return true // intra-AS traffic carries no trailer here
			}
			return s.Registry.Verify(p, l.From.AS)
		}
	}
	l.SetQueue(b.q)
	l.SetOnTransmit(b.onTransmit)
	l.Origin().Tick(detectInterval, b.detectTick)
	return b
}

// Monitoring reports whether the link is in a monitoring cycle.
func (b *Bottleneck) Monitoring() bool { return b.monActive }

// FallbackActive reports whether per-AS queuing has engaged (§4.5).
func (b *Bottleneck) FallbackActive() bool { return b.q.fallbackActive() }

// StartMonitoring opens a monitoring cycle, or extends the open one:
// detectTick calls it on every attacked tick, and tests force it.
func (b *Bottleneck) StartMonitoring() {
	now := b.link.From.Network().Eng.Now()
	if !b.monActive {
		b.monActive = true
		b.monStarted = now
		b.link.From.Network().Cells.Add(obs.CoreMonitorUp, 1)
	}
	b.lastAttack = now
}

// detectTick runs the Figure 19 attack detector and maintains the
// monitoring cycle and the §4.5 fallback.
func (b *Bottleneck) detectTick() {
	now := b.link.From.Network().Eng.Now()
	reg := b.q.RegularStats()
	if reg.Dropped > b.prevReg.Dropped {
		b.fbCongested = now
	}
	b.prevReg = reg
	attacked := b.det.Sample(reg)
	if b.util != nil && b.util.Sample(b.link.TxBytes, now) {
		attacked = true
	}
	if attacked {
		b.StartMonitoring()
		if b.sys.Cfg.PerASFallback && !b.q.fallbackActive() &&
			now-b.monStarted > fallbackAfter {
			// Congestion persists despite the monitoring cycle: a sign of
			// malfunctioning (compromised) access routers. Localize the
			// damage with per-source-AS queuing.
			b.q.enableFallback(now)
			b.link.From.Network().Cells.Add(obs.CoreFallbackEngaged, 1)
		}
	} else if b.monActive && now-b.lastAttack > monitorHold {
		b.monActive = false
		b.link.From.Network().Cells.Add(obs.CoreMonitorDown, 1)
	}
}

// overloaded is the rule-3 predicate of §4.3.2 with the Figure 4
// hysteresis: the link counts as overloaded from the moment congestion is
// observed until two control intervals after it last abated, which
// guarantees a sender that congests the link cannot obtain L-up feedback
// for a full control interval. In fallback mode congestion is charged
// per source AS, so an AS overflowing its own queue cannot force L-down
// onto well-behaved ASes' senders (§4.5).
func (b *Bottleneck) overloaded(now sim.Time) bool {
	last, seen := b.q.lastCongested()
	h := sim.Time(b.sys.Cfg.HysteresisIntervals) * Ilim
	return seen && now <= last+h
}

func (b *Bottleneck) overloadedFor(p *packet.Packet, now sim.Time) bool {
	if b.q.fallbackActive() {
		last, seen := b.q.lastCongestedForAS(p.SrcAS)
		h := sim.Time(b.sys.Cfg.HysteresisIntervals) * Ilim
		return seen && now <= last+h
	}
	return b.overloaded(now)
}

// onTransmit updates the congestion policing feedback of packets leaving
// through the monitored link, applying the ordered rules of §4.3.2.
func (b *Bottleneck) onTransmit(p *packet.Packet, l *netsim.Link) {
	net := l.From.Network()
	sampled := net.Rec.Sampled(uint64(p.Flow))
	if !b.monActive || p.Kind == packet.KindLegacy {
		if sampled {
			net.Rec.Record(int64(net.Eng.Now()), uint64(p.Flow), l.Label(), obs.HopMonitor, "idle")
		}
		return
	}
	now := l.From.Network().Eng.Now()
	if b.sys.Cfg.MultiFeedback {
		b.stampMulti(p, now)
		return
	}
	switch {
	case p.FB.Mode == packet.FBNop:
		// Rule 1: nop is always replaced by L-down in the mon state.
	case p.FB.Action == packet.ActDecr:
		// Rule 2: never overwrite an upstream link's L-down.
		if sampled {
			net.Rec.Record(int64(now), uint64(p.Flow), l.Label(), obs.HopMonitor, "mon keep-upstream-decr")
		}
		return
	case !b.overloadedFor(p, now):
		// Rule 3 negative: leave L-up feedback alone.
		if sampled {
			net.Rec.Record(int64(now), uint64(p.Flow), l.Label(), obs.HopMonitor, "mon keep-lup")
		}
		return
	}
	kai := b.sys.kaiForSender(p.SrcAS, l.From.AS)
	if kai == nil {
		return
	}
	feedback.StampDecr(kai, p, l.ID)
	net.Cells.Add(obs.CoreStampDecr, 1)
	if sampled {
		net.Rec.Record(int64(now), uint64(p.Flow), l.Label(), obs.HopMonitor, "mon stamp-decr")
	}
}
