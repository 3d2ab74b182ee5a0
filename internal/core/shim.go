package core

import (
	"strconv"

	"netfence/internal/defense"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/ratelimit"
	"netfence/internal/sim"
	"netfence/internal/smallmap"
)

// HostShim is NetFence's end-host layer between transport and network
// (§3.1, §6.2): it classifies outgoing packets into request/regular,
// presents the freshest valid feedback on regular packets, returns the
// network-stamped feedback of incoming packets to their senders
// (piggybacked on reverse traffic, or in dedicated low-rate feedback
// packets for one-way flows), and implements the receiver-side
// feedback-as-capability behavior: traffic the host identifies as
// unwanted is dropped before any feedback is recorded or returned, so the
// attacker can never present valid feedback again (§3.3).
type HostShim struct {
	sys  *System
	host *netsim.Host
	deny func(src packet.NodeID) bool

	// A sender talks to its victim and a receiver hears from one sender,
	// so nearly every host has one peer: its state lives in the shim
	// itself under firstID (-1 until the first packet), and only further
	// peers go into the table. flowStart likewise holds the one SYN
	// outstanding at a time inline.
	rest      map[packet.NodeID]*peerState
	flowStart smallmap.Map[packet.FlowID, sim.Time]
	// echoOrg keys the per-peer echo timers. Only receivers of one-way
	// traffic ever run one, so the origin is made on the first echo from
	// the node ordinal reserved at attach (echoOrd): every origin made
	// on the node after the shim keeps its ID either way.
	echoOrg *sim.Origin
	first   peerState
	firstID packet.NodeID
	echoOrd uint32
}

// peerState's fields are ordered so the two flags fill what would
// otherwise be padding after the first feedback record.
type peerState struct {
	// presented is the feedback this host presents on packets it sends
	// to the peer (returned to us by the peer earlier).
	presented    packet.Feedback
	hasPresented bool
	hasReqSince  bool

	// toReturn is the latest network-stamped feedback observed on
	// packets from the peer, to hand back.
	toReturn packet.Returned
	lastFlow packet.FlowID

	// multi holds the Appendix B.1 multi-bottleneck equivalents of the
	// three fields above; nil until a B.1 header arrives from the peer.
	multi *peerMulti

	lastSent  sim.Time
	lastHeard sim.Time
	echo      *echoTimer

	// reqSince (valid when hasReqSince) marks when the shim last fell
	// back to the request channel for lack of valid feedback toward this
	// peer; the waiting time since then buys request priority (§4.2),
	// exactly as the SYN path's flow-start clock does. Without this, a
	// sender whose feedback expired mid-connection would be pinned at
	// priority 0 — starved forever behind any demoted attack flood
	// sharing the request channel (the replay strategy's best outcome).
	reqSince sim.Time
}

type peerMulti struct {
	presented    packet.MultiHeader
	hasPresented bool
	toReturn     packet.MultiHeader
}

// needMulti returns the peer's B.1 state, allocating it on first use.
func (ps *peerState) needMulti() *peerMulti {
	if ps.multi == nil {
		ps.multi = new(peerMulti)
	}
	return ps.multi
}

// AttachHost installs a NetFence shim on host h with the given policy.
func (s *System) AttachHost(h *netsim.Node, pol defense.Policy) {
	shim := &HostShim{
		sys:     s,
		host:    h.Host,
		deny:    pol.Deny,
		firstID: -1,
		echoOrd: h.ReserveOrigin(),
	}
	h.Host.Shim = shim
}

// Shim returns the NetFence shim installed on h, or nil.
func Shim(h *netsim.Node) *HostShim {
	sh, _ := h.Host.Shim.(*HostShim)
	return sh
}

// peer returns id's state, creating it on the first packet to or from id.
func (sh *HostShim) peer(id packet.NodeID) *peerState {
	if id == sh.firstID {
		return &sh.first
	}
	if sh.firstID < 0 {
		sh.firstID = id
		return &sh.first
	}
	ps := sh.rest[id]
	if ps == nil {
		if sh.rest == nil {
			sh.rest = make(map[packet.NodeID]*peerState)
		}
		ps = &peerState{}
		sh.rest[id] = ps
	}
	return ps
}

// Presented returns the feedback currently presented toward a peer, for
// tests and diagnostics.
func (sh *HostShim) Presented(peer packet.NodeID) (packet.Feedback, bool) {
	ps := &sh.first
	if peer != sh.firstID {
		ps = sh.rest[peer]
	}
	if ps == nil {
		return packet.Feedback{}, false
	}
	return ps.presented, ps.hasPresented
}

func (sh *HostShim) fresh(ts uint32) bool {
	nowSec := sh.host.Network().NowSec()
	diff := int64(nowSec) - int64(ts)
	// One second of margin below the expiration window w: the access
	// router re-checks freshness after the uplink delay, and feedback
	// that would expire in transit must not be presented.
	return diff <= int64(sh.sys.Cfg.WSec)-1 && diff >= -1
}

// Egress classifies and decorates an outgoing packet.
func (sh *HostShim) Egress(p *packet.Packet) {
	now := sh.host.Network().Eng.Now()
	ps := sh.peer(p.Dst)
	ps.lastSent = now

	// Hand back the latest feedback for the reverse path.
	if sh.sys.Cfg.MultiFeedback {
		if m := ps.multi; m != nil && m.toReturn.Present {
			p.NeedExt().RetMFB = m.toReturn
		}
	} else if ps.toReturn.Present {
		p.Ret = ps.toReturn
	}

	// Strategic senders craft their own request packets; leave them be.
	if p.Kind == packet.KindRequest && p.Prio > 0 {
		return
	}

	if p.IsSYN() {
		// New connections begin with request packets (§3.1 step 1); the
		// priority level grows with waiting time, mirroring the access
		// router's token bucket (§4.2, §6.3.1).
		start, ok := sh.flowStart.Get(p.Flow)
		if !ok {
			start = now
			sh.flowStart.Set(p.Flow, now)
		}
		p.Kind = packet.KindRequest
		p.Prio = ratelimit.AffordableLevel(now - start)
		clearFeedback(p)
		sh.noteRequest(p, now)
		return
	}
	sh.flowStart.Delete(p.Flow)

	if sh.sys.Cfg.MultiFeedback {
		if m := ps.multi; m != nil && m.hasPresented && sh.fresh(m.presented.TS) {
			p.NeedExt().MFB = m.presented
			p.Kind = packet.KindRegular
			ps.hasReqSince = false
			sh.traceHop(p, now, "regular")
			return
		}
	} else if ps.hasPresented && sh.fresh(ps.presented.TS) {
		p.FB = ps.presented
		p.Kind = packet.KindRegular
		ps.hasReqSince = false
		sh.traceHop(p, now, "regular")
		return
	}
	// No valid feedback in hand: the packet can only travel the request
	// channel, at the priority the waiting time since feedback was lost
	// affords (§4.2) — the access router's token bucket enforces the
	// actual spend, so an impatient claim is simply dropped there.
	if !ps.hasReqSince {
		ps.reqSince = now
		ps.hasReqSince = true
	}
	p.Kind = packet.KindRequest
	p.Prio = ratelimit.AffordableLevel(now - ps.reqSince)
	clearFeedback(p)
	sh.noteRequest(p, now)
}

// clearFeedback strips the forward feedback a request packet must not
// carry, in both header formats.
func clearFeedback(p *packet.Packet) {
	p.FB = packet.Feedback{}
	if p.Ext != nil {
		p.Ext.MFB = packet.MultiHeader{}
	}
}

// noteRequest accounts a request-channel departure: an escalated priority
// means the sender has been waiting for admission (§4.2), the signal the
// escalation counter tracks.
func (sh *HostShim) noteRequest(p *packet.Packet, now sim.Time) {
	net := sh.host.Network()
	if p.Prio > 0 {
		net.Cells.Add(obs.CoreEscalation, 1)
	}
	if net.Rec.Sampled(uint64(p.Flow)) {
		net.Rec.Record(int64(now), uint64(p.Flow), sh.host.Node.String(),
			obs.HopShim, "request prio="+strconv.Itoa(int(p.Prio)))
	}
}

// traceHop records a shim-stamp hop for sampled flows.
func (sh *HostShim) traceHop(p *packet.Packet, now sim.Time, detail string) {
	net := sh.host.Network()
	if net.Rec.Sampled(uint64(p.Flow)) {
		net.Rec.Record(int64(now), uint64(p.Flow), sh.host.Node.String(),
			obs.HopShim, detail)
	}
}

// Ingress records feedback from an incoming packet and applies the
// receiver policy. It consumes dedicated feedback packets.
func (sh *HostShim) Ingress(p *packet.Packet) bool {
	if sh.deny != nil && sh.deny(p.Src) {
		// Unwanted traffic: drop before recording anything, so no
		// feedback is ever returned to this sender (§3.3).
		return false
	}
	ps := sh.peer(p.Src)
	ps.lastHeard = sh.host.Network().Eng.Now()
	ps.lastFlow = p.Flow

	if sh.sys.Cfg.MultiFeedback {
		if x := p.Ext; x != nil {
			if x.MFB.Present {
				ps.needMulti().toReturn = x.MFB
			}
			if x.RetMFB.Present {
				m := ps.needMulti()
				m.presented = x.RetMFB
				m.hasPresented = true
			}
		}
	} else {
		ps.toReturn = feedback.ToReturned(p.FB)
		if p.Ret.Present {
			sh.updatePresented(ps, feedback.ToPresented(p.Ret))
		}
	}

	if p.Proto == packet.ProtoUDP && p.Payload > 0 {
		// One-way traffic: make sure the sender keeps receiving feedback.
		sh.ensureEcho(p.Src, ps)
	}
	return p.Proto != packet.ProtoFeedback
}

// updatePresented folds newly returned feedback into the presentation
// choice. Per §4.3.4, a sender should keep presenting L-up feedback for
// as long as it is unexpired, even when newer L-down feedback arrives —
// the legitimate strategy must mimic the most aggressive one so that
// fairness holds among all senders.
func (sh *HostShim) updatePresented(ps *peerState, fb packet.Feedback) {
	if !ps.hasPresented {
		ps.presented = fb
		ps.hasPresented = true
		return
	}
	cur := &ps.presented
	curIsUp := cur.Mode == packet.FBNop || cur.Action == packet.ActIncr
	newIsDown := fb.Mode == packet.FBMon && fb.Action == packet.ActDecr
	if newIsDown && curIsUp && sh.fresh(cur.TS) {
		return // keep the still-valid L-up
	}
	ps.presented = fb
}

// ensureEcho starts the low-rate dedicated feedback stream toward a
// sender of one-way traffic (§3.1 step 4). The stream idles away once the
// peer goes silent.
func (sh *HostShim) ensureEcho(peer packet.NodeID, ps *peerState) {
	if ps.echo != nil {
		return
	}
	if sh.echoOrg == nil {
		org := sh.host.Node.OriginAt(sh.echoOrd)
		sh.echoOrg = &org
	}
	e := &echoTimer{sh: sh, ps: ps, peer: peer}
	ps.echo = e
	sh.echoOrg.ScheduleEvent(&e.ev, sh.echoOrg.Now()+echoInterval, e, nil)
}

// echoTimer is one peer's echo stream: the owned event that fires every
// echoInterval, and what it needs to send a feedback packet.
type echoTimer struct {
	ev   sim.Event
	sh   *HostShim
	ps   *peerState
	peer packet.NodeID
}

// OnEvent implements sim.Handler: it sends one feedback packet when the
// reverse path carried none lately, and re-arms after the send, unless
// the peer has been silent for eight intervals.
func (e *echoTimer) OnEvent(now sim.Time, _ any) {
	sh, ps := e.sh, e.ps
	if now-ps.lastHeard > 8*echoInterval {
		ps.echo = nil
		return
	}
	// Send only when no reverse traffic carried the feedback within the
	// interval, and there is feedback to return.
	if now-ps.lastSent >= echoInterval &&
		(ps.toReturn.Present || ps.multi != nil && ps.multi.toReturn.Present) {
		p := sh.host.NewPacket()
		p.Dst = e.peer
		p.Flow = ps.lastFlow
		p.Proto = packet.ProtoFeedback
		p.Size = packet.SizeFeedbackPkt
		sh.host.Send(p)
	}
	sh.echoOrg.ScheduleEvent(&e.ev, now+echoInterval, e, nil)
}
