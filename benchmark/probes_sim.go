package main

import (
	"unsafe"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// holdHandler is the classic hold model: every executed event schedules
// one successor a pseudo-random delay ahead, so the pending set keeps
// its size while the clock advances.
type holdHandler struct {
	eng    *sim.Engine
	delays []sim.Time
	i      int
}

func (h *holdHandler) OnEvent(now sim.Time, _ any) {
	h.i++
	h.eng.Schedule(now+h.delays[h.i&(len(h.delays)-1)], h, nil)
}

// holdNs is pop-one-plus-schedule-one at a pending set of the given
// size, delays uniform in (0, 20 ms] — the link-delay scale of the
// simulated networks.
func holdNs(seed uint64, pending, steps int) float64 {
	eng := sim.New(seed)
	rng := newXorshift(seed)
	h := &holdHandler{eng: eng, delays: make([]sim.Time, 4096)}
	for i := range h.delays {
		h.delays[i] = sim.Time(rng.next()%uint64(20*sim.Millisecond)) + 1
	}
	for i := 0; i < pending; i++ {
		eng.Schedule(h.delays[i&4095], h, nil)
	}
	for i := 0; i < min(pending, 200_000); i++ { // warm the pool and the wheel
		eng.Step()
	}
	return bestNs(steps, func(n int) {
		for i := 0; i < n; i++ {
			eng.Step()
		}
	})
}

type nopHandler struct{}

func (nopHandler) OnEvent(sim.Time, any) {}

// tickHandler re-arms itself every period: one event per window.
type tickHandler struct {
	eng    *sim.Engine
	period sim.Time
}

func (h *tickHandler) OnEvent(now sim.Time, _ any) { h.eng.Schedule(now+h.period, h, nil) }

func probeSim(l *ledger, seed uint64) {
	l.set("sim.hold_ns_p256", holdNs(seed, 256, l.count(300_000)))
	l.set("sim.hold_ns_p16k", holdNs(seed, 16_384, l.count(300_000)))
	l.set("sim.hold_ns_p1m", holdNs(seed, l.count(1_000_000), l.count(200_000)))
	l.set("sim.event_bytes", float64(unsafe.Sizeof(sim.Event{})))

	// Arm and cancel an owned event among 256 pending ones.
	eng := sim.New(seed)
	for i := 0; i < 256; i++ {
		eng.Schedule(sim.Time(i+1)*sim.Millisecond, nopHandler{}, nil)
	}
	var ev sim.Event
	rng := newXorshift(seed)
	l.set("sim.cancel_ns", bestNs(l.count(500_000), func(n int) {
		for i := 0; i < n; i++ {
			eng.ScheduleEvent(&ev, sim.Time(rng.next()%uint64(20*sim.Millisecond)), nopHandler{}, nil)
			ev.Cancel()
		}
	}))
}

func probeCoord(l *ledger, seed uint64) {
	// Two engines, one event per engine per window: what is left is the
	// coordinator's two barriers and the window bookkeeping.
	const lookahead = sim.Millisecond
	engines := []*sim.Engine{sim.New(seed), sim.New(seed + 1)}
	for i, e := range engines {
		e.SetShardTag(i)
		e.Schedule(0, &tickHandler{eng: e, period: lookahead}, nil)
	}
	coord := sim.NewCoordinator(engines, lookahead, nil)
	horizon := sim.Time(0)
	l.set("sim.coord_window_ns", bestNs(l.count(10_000), func(n int) {
		horizon += sim.Time(n) * lookahead
		coord.RunUntil(horizon)
	}))
	coord.Stop()

	// Mint, inject and fire handoff events in batches of 64.
	const batch = 64
	src, dst := sim.New(seed), sim.New(seed+1)
	src.SetShardTag(0)
	dst.SetShardTag(1)
	keys := make([]sim.EventKey, batch)
	args := make([]any, batch)
	l.set("sim.inject_batch_ns", bestNs(l.count(5_000)*batch, func(n int) {
		for done := 0; done < n; done += batch {
			at := dst.Now() + sim.Millisecond
			for i := range keys {
				keys[i] = src.HandoffKey(at)
			}
			dst.InjectBatch(keys, nopHandler{}, args)
			dst.RunUntil(at)
		}
	}))

	l.set("netsim.mailbox_ns", mailboxNs(seed, l.count(50_000)))
}

// twoHop builds h1 - r1 - r2 - h2 with 1 Gbps, 1 ms links and a sink
// on h2: the forwarding fixture of the netsim probes.
type twoHop struct {
	eng            *sim.Engine
	net            *netsim.Network
	h1, r1, r2, h2 *netsim.Node
	delivered      int
}

type sinkAgent struct{ n *int }

func (s sinkAgent) Receive(*packet.Packet) { *s.n++ }

func newTwoHop(seed uint64) *twoHop {
	t := &twoHop{eng: sim.New(seed)}
	t.net = netsim.New(t.eng)
	t.h1 = t.net.NewHost("h1", 1)
	t.r1 = t.net.NewNode("r1", 1)
	t.r2 = t.net.NewNode("r2", 2)
	t.h2 = t.net.NewHost("h2", 2)
	t.net.Connect(t.h1, t.r1, 1_000_000_000, sim.Millisecond)
	t.net.Connect(t.r1, t.r2, 1_000_000_000, sim.Millisecond)
	t.net.Connect(t.r2, t.h2, 1_000_000_000, sim.Millisecond)
	t.net.ComputeRoutes()
	t.h2.Host.OnUnknownFlow = func(*packet.Packet) netsim.Agent { return sinkAgent{&t.delivered} }
	return t
}

// send emits one full-size regular UDP packet from h1 to h2.
func (t *twoHop) send() {
	p := t.h1.Host.NewPacket()
	p.Dst = t.h2.ID
	p.Flow = 1
	p.Kind = packet.KindRegular
	p.Proto = packet.ProtoUDP
	p.Size = packet.SizeData
	t.h1.Host.Send(p)
}

// mailboxNs is one packet end to end across a cut link: sent on the
// source replica, handed off at transmit-complete, drained into the
// destination replica and delivered there.
func mailboxNs(seed uint64, n int) float64 {
	a, b := newTwoHop(seed), newTwoHop(seed)
	a.eng.SetShardTag(0)
	b.eng.SetShardTag(1)
	cut := a.r1.LinkTo(a.r2)
	mb := netsim.NewMailbox(b.net.Links[cut.Index])
	cut.SetMailbox(mb)
	step := func() {
		a.send()
		a.eng.RunUntil(a.eng.Now() + 10*sim.Millisecond)
		// b trails a by one step, so a handoff never lands behind b's
		// clock: 10 ms covers the remaining hop and the delivery.
		mb.Drain(a.eng.Now())
		b.eng.RunUntil(a.eng.Now())
	}
	for i := 0; i < 100; i++ {
		step()
	}
	ns := bestNs(n, func(n int) {
		for i := 0; i < n; i++ {
			step()
		}
	})
	if b.delivered == 0 {
		logf("netsim.mailbox_ns: no packet crossed the cut link")
	}
	return ns
}
