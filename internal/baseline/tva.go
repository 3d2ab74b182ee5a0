package baseline

import (
	"netfence/internal/aqm"
	"netfence/internal/defense"
	"netfence/internal/fq"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// TVA implements the TVA+ comparator (§6.3): a capability-based
// architecture. Receivers authorize senders by granting capabilities;
// regular packets carrying a valid capability ride a per-destination
// fair-queued channel; everything else is a request packet, policed by
// two-level (source AS, then sender) hierarchical fair queuing capped at
// 5% of link capacity.
//
// Capabilities are modeled as unforgeable by construction (only receiver
// shims mint packet.Capability values); see DESIGN.md. Capability caching
// at routers is deliberately not modeled — the paper's Figure 7 likewise
// excludes it because caching needs per-flow router state.
type TVA struct{}

// The paper's TVA+ parameters.
const (
	// tvaCapLifetime is how long a granted capability remains valid.
	tvaCapLifetime = 10 * sim.Second
	// tvaRequestCapFrac caps the request channel's capacity share.
	tvaRequestCapFrac = 0.05
)

// NewTVA returns a TVA+ deployment with the paper's parameters.
func NewTVA() *TVA { return &TVA{} }

// Name identifies the system.
func (*TVA) Name() string { return "TVA+" }

// ProtectLink installs the TVA+ two-channel queue.
func (t *TVA) ProtectLink(l *netsim.Link) {
	l.SetQueue(newTVAQueue(l.Rate))
}

// ProtectAccess does nothing: TVA+ polices at congested routers, not at
// the access edge.
func (t *TVA) ProtectAccess(r *netsim.Node) {}

// AttachHost installs the capability-granting shim.
func (t *TVA) AttachHost(h *netsim.Node, pol defense.Policy) {
	h.Host.Shim = &tvaShim{host: h.Host, deny: pol.Deny,
		caps: make(map[packet.NodeID]packet.Capability),
		refr: make(map[packet.NodeID]*tvaPeer), org: h.NewOrigin()}
}

// tvaQueue is a link queue with a capability-checked regular channel
// (per-destination DRR) and a hard-capped request channel (AS-then-sender
// hierarchical DRR). Legacy traffic rides below both.
type tvaQueue struct {
	req    *fq.HDRR
	reg    *fq.DRR
	legacy *aqm.DropTail

	credit     float64
	creditMax  float64
	creditRate float64
	creditAt   sim.Time
}

func newTVAQueue(rateBps int64) *tvaQueue {
	limit := queueLimit(rateBps)
	reqLimit := limit / 20
	if reqLimit < 8_000 {
		reqLimit = 8_000
	}
	return &tvaQueue{
		req:        fq.NewHDRR(fq.BySourceAS, fq.BySender, packet.SizeRequest, reqLimit),
		reg:        fq.NewDRR(fq.ByDest, packet.SizeData, limit),
		legacy:     aqm.NewDropTail(limit / 10),
		creditMax:  2 * packet.SizeData,
		creditRate: tvaRequestCapFrac * float64(rateBps) / 8,
	}
}

// Enqueue validates capabilities and routes to the proper channel.
func (q *tvaQueue) Enqueue(p *packet.Packet, now sim.Time) bool {
	switch p.Kind {
	case packet.KindLegacy:
		return q.legacy.Enqueue(p, now)
	case packet.KindRegular:
		nowSec := uint32(now / sim.Second)
		if p.Ext != nil && p.Ext.Cap.Valid(p.Dst, nowSec) {
			return q.reg.Enqueue(p, now)
		}
		// Missing/expired/forged capability: the packet is a request.
		p.Kind = packet.KindRequest
		fallthrough
	default:
		return q.req.Enqueue(p, now)
	}
}

func (q *tvaQueue) refill(now sim.Time) {
	if now > q.creditAt {
		q.credit += q.creditRate * (now - q.creditAt).Seconds()
		if q.credit > q.creditMax {
			q.credit = q.creditMax
		}
	}
	q.creditAt = now
}

// Dequeue serves requests within their 5% share, then regular, then
// legacy traffic.
func (q *tvaQueue) Dequeue(now sim.Time) (*packet.Packet, sim.Time) {
	q.refill(now)
	if q.req.Bytes() > 0 && q.credit >= packet.SizeRequest {
		if p, _ := q.req.Dequeue(now); p != nil {
			q.credit -= float64(p.Size)
			return p, 0
		}
	}
	if p, _ := q.reg.Dequeue(now); p != nil {
		return p, 0
	}
	if p, _ := q.legacy.Dequeue(now); p != nil {
		return p, 0
	}
	if q.req.Bytes() > 0 {
		need := packet.SizeRequest - q.credit
		wait := sim.Time(need / q.creditRate * float64(sim.Second))
		if wait < sim.Microsecond {
			wait = sim.Microsecond
		}
		return nil, now + wait
	}
	return nil, 0
}

// Len returns total queued packets.
func (q *tvaQueue) Len() int { return q.req.Len() + q.reg.Len() + q.legacy.Len() }

// Bytes returns total queued bytes.
func (q *tvaQueue) Bytes() int { return q.req.Bytes() + q.reg.Bytes() + q.legacy.Bytes() }

// Stats aggregates all channels.
func (q *tvaQueue) Stats() queue.Stats {
	return q.req.Stats().Add(q.reg.Stats()).Add(q.legacy.Stats())
}

// SetDropper installs d on every channel.
func (q *tvaQueue) SetDropper(d queue.Dropper) {
	q.req.SetDropper(d)
	q.reg.SetDropper(d)
	q.legacy.SetDropper(d)
}

// tvaShim is the TVA+ host layer: receivers grant capabilities to peers
// they accept from; senders attach granted capabilities to their regular
// packets.
type tvaShim struct {
	host *netsim.Host
	deny func(src packet.NodeID) bool
	// caps holds capabilities this host has been granted, by granter.
	caps map[packet.NodeID]packet.Capability
	refr map[packet.NodeID]*tvaPeer
	// org keys the per-peer capability-refresh tickers.
	org sim.Origin
}

type tvaPeer struct {
	lastSent  sim.Time
	lastHeard sim.Time
	lastFlow  packet.FlowID
	refresh   *sim.Ticker
}

func (t *tvaShim) peer(id packet.NodeID) *tvaPeer {
	ps := t.refr[id]
	if ps == nil {
		ps = &tvaPeer{}
		t.refr[id] = ps
	}
	return ps
}

// Egress attaches capabilities and grants.
func (t *tvaShim) Egress(p *packet.Packet) {
	now := t.host.Network().Eng.Now()
	nowSec := uint32(now / sim.Second)
	ps := t.peer(p.Dst)
	ps.lastSent = now

	// Receiver role: any packet we send to a peer we accept from carries
	// a fresh grant authorizing that peer to send to us.
	x := p.NeedExt()
	x.CapGrant = packet.Capability{
		Present: true,
		Dst:     t.host.Node.ID,
		Expire:  nowSec + uint32(tvaCapLifetime/sim.Second),
	}

	if p.Kind == packet.KindRequest {
		return // pre-crafted request flood
	}
	if p.IsSYN() {
		p.Kind = packet.KindRequest
		return
	}
	if cap, ok := t.caps[p.Dst]; ok && cap.Valid(p.Dst, nowSec) {
		x.Cap = cap
		p.Kind = packet.KindRegular
		return
	}
	p.Kind = packet.KindRequest
}

// Ingress stores grants and applies the receiver policy.
func (t *tvaShim) Ingress(p *packet.Packet) bool {
	if t.deny != nil && t.deny(p.Src) {
		return false // no grant is ever minted for this sender
	}
	ps := t.peer(p.Src)
	ps.lastHeard = t.host.Network().Eng.Now()
	ps.lastFlow = p.Flow
	if x := p.Ext; x != nil && x.CapGrant.Present && x.CapGrant.Dst == p.Src {
		t.caps[p.Src] = x.CapGrant
	}
	if p.Proto == packet.ProtoUDP && p.Payload > 0 {
		t.ensureRefresh(p.Src, ps)
	}
	return p.Proto != packet.ProtoCap
}

// ensureRefresh keeps a one-way sender's capability fresh with dedicated
// low-rate grant packets, TVA's analogue of NetFence's feedback packets.
func (t *tvaShim) ensureRefresh(peer packet.NodeID, ps *tvaPeer) {
	if ps.refresh != nil {
		return
	}
	eng := t.host.Network().Eng
	interval := tvaCapLifetime / 4
	ps.refresh = t.org.Tick(interval, func() {
		now := eng.Now()
		if now-ps.lastHeard > 2*tvaCapLifetime {
			ps.refresh.Stop()
			ps.refresh = nil
			return
		}
		if now-ps.lastSent < interval {
			return
		}
		p := t.host.NewPacket()
		p.Dst = peer
		p.Flow = ps.lastFlow
		p.Proto = packet.ProtoCap
		p.Size = packet.SizeFeedbackPkt
		t.host.Send(p)
	})
}
