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

// StopIt implements the filter-based comparator (§6.3): a victim that
// identifies unwanted traffic installs a network filter that blocks the
// (source, destination) pair at the source's access router. When
// receivers fail to install filters (colluding receivers), congested
// links fall back to AS-then-sender hierarchical fair queuing, exactly as
// the paper describes.
//
// The closed-loop filter-request protocol of the original system is
// modeled as a reliable control channel with a fixed propagation delay
// (filterDelay), the same abstraction the paper's own evaluation uses.
type StopIt struct {
	net *netsim.Network
	// access maps each host to its access-router filter table.
	access map[packet.NodeID]*stopitAccess

	// FiltersInstalled counts installations, for tests and metrics.
	FiltersInstalled int
}

// The paper's StopIt parameters.
const (
	// filterDelay is the time from the victim's decision to the filter
	// taking effect at the source access router.
	filterDelay = 100 * sim.Millisecond
	// filterDuration is how long an installed filter lasts.
	filterDuration = 10 * sim.Minute
)

// NewStopIt returns a StopIt deployment for net.
func NewStopIt(net *netsim.Network) *StopIt {
	return &StopIt{net: net, access: make(map[packet.NodeID]*stopitAccess)}
}

// Name identifies the system.
func (*StopIt) Name() string { return "StopIt" }

// ProtectLink installs AS-then-sender hierarchical fair queuing.
func (s *StopIt) ProtectLink(l *netsim.Link) {
	l.SetQueue(&stopitQueue{
		main:   fq.NewHDRR(fq.BySourceAS, fq.BySender, packet.SizeData, queueLimit(l.Rate)),
		legacy: aqm.NewDropTail(queueLimit(l.Rate) / 10),
	})
}

// ProtectAccess installs a filter table covering r's attached hosts.
func (s *StopIt) ProtectAccess(r *netsim.Node) {
	sa := &stopitAccess{node: r, filters: make(map[[2]packet.NodeID]sim.Time)}
	r.Ingress = sa.ingress
	for _, l := range r.Out() {
		if l.To.IsHost && l.To.AS == r.AS {
			s.access[l.To.ID] = sa
		}
	}
}

// AttachHost installs the filter-requesting shim.
func (s *StopIt) AttachHost(h *netsim.Node, pol defense.Policy) {
	h.Host.Shim = &stopitShim{sys: s, host: h.Host, deny: pol.Deny}
}

// RequestFilter asks the source's access router to block src->dst, after
// the control-channel delay. It writes into the router this deployment
// holds, and a partitioned run deploys an access router only on the
// shard owning its AS — which may not be the victim's — so a
// partitioned run with a deny policy is refused at Build.
func (s *StopIt) RequestFilter(src, dst packet.NodeID) {
	sa := s.access[src]
	if sa == nil {
		return
	}
	key := [2]packet.NodeID{src, dst}
	eng := s.net.Eng
	if until, ok := sa.filters[key]; ok && until > eng.Now()+filterDelay {
		return // already installed or in flight
	}
	sa.filters[key] = eng.Now() + filterDelay + filterDuration
	s.FiltersInstalled++
}

// stopitAccess is an access router's filter table.
type stopitAccess struct {
	node    *netsim.Node
	filters map[[2]packet.NodeID]sim.Time

	// Blocked counts packets dropped by filters.
	Blocked uint64
}

func (sa *stopitAccess) ingress(p *packet.Packet, from *netsim.Link) bool {
	if from == nil || !from.From.IsHost || from.From.AS != sa.node.AS {
		return true
	}
	now := sa.node.Network().Eng.Now()
	if until, ok := sa.filters[[2]packet.NodeID{p.Src, p.Dst}]; ok {
		if now <= until && now >= until-filterDuration {
			sa.Blocked++
			sa.node.Network().Release(p) // filtered: end of life
			return false
		}
		if now > until {
			delete(sa.filters, [2]packet.NodeID{p.Src, p.Dst})
		}
	}
	return true
}

// stopitShim is the host layer: victims that identify unwanted traffic
// install filters; everything else passes through.
type stopitShim struct {
	sys  *StopIt
	host *netsim.Host
	deny func(src packet.NodeID) bool
}

func (sh *stopitShim) Egress(p *packet.Packet) {}

func (sh *stopitShim) Ingress(p *packet.Packet) bool {
	if sh.deny != nil && sh.deny(p.Src) {
		sh.sys.RequestFilter(p.Src, sh.host.Node.ID)
		return false
	}
	return true
}

// stopitQueue serves the hierarchically fair main channel with legacy
// traffic strictly below it.
type stopitQueue struct {
	main   *fq.HDRR
	legacy *aqm.DropTail
}

// Enqueue routes by channel.
func (q *stopitQueue) Enqueue(p *packet.Packet, now sim.Time) bool {
	if p.Kind == packet.KindLegacy {
		return q.legacy.Enqueue(p, now)
	}
	return q.main.Enqueue(p, now)
}

// Dequeue serves main, then legacy.
func (q *stopitQueue) Dequeue(now sim.Time) (*packet.Packet, sim.Time) {
	if p, _ := q.main.Dequeue(now); p != nil {
		return p, 0
	}
	return q.legacy.Dequeue(now)
}

// Len returns total queued packets.
func (q *stopitQueue) Len() int { return q.main.Len() + q.legacy.Len() }

// Bytes returns total queued bytes.
func (q *stopitQueue) Bytes() int { return q.main.Bytes() + q.legacy.Bytes() }

// Stats aggregates both channels.
func (q *stopitQueue) Stats() queue.Stats { return q.main.Stats().Add(q.legacy.Stats()) }

// SetDropper installs d on both channels.
func (q *stopitQueue) SetDropper(d queue.Dropper) {
	q.main.SetDropper(d)
	q.legacy.SetDropper(d)
}
