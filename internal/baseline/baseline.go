// Package baseline implements the three comparator DoS defenses of the
// paper's evaluation (§6.3) plus an undefended control:
//
//   - TVA+: network capabilities with two-level hierarchical fair queuing
//     (source AS, then sender) on the request channel and per-destination
//     fair queuing on the regular channel;
//   - StopIt: victim-installed network filters that block unwanted flows
//     at the source access router, with AS-then-sender hierarchical fair
//     queuing at congested links;
//   - FQ: plain per-sender fair queuing at every link;
//   - None: DropTail everywhere.
//
// All four satisfy defense.System, so the experiment harness can swap
// them under identical topologies and workloads.
package baseline

import (
	"netfence/internal/aqm"
	"netfence/internal/defense"
	"netfence/internal/netsim"
	"netfence/internal/packet"
)

// queueLimit returns the evaluation queue size: 0.2 s of buffering, as in
// Figure 3.
func queueLimit(rateBps int64) int {
	limit := int(rateBps / 8 / 5)
	if limit < 2*packet.SizeData {
		limit = 2 * packet.SizeData
	}
	return limit
}

// denyShim drops unwanted traffic at the receiver. Systems without a
// sender-side host layer still give victims the ability to ignore
// traffic; whether that helps depends on the system (it does not for FQ,
// where the traffic has already crossed the bottleneck).
type denyShim struct {
	deny func(src packet.NodeID) bool
}

func (d denyShim) Egress(*packet.Packet) {}

func (d denyShim) Ingress(p *packet.Packet) bool {
	return d.deny == nil || !d.deny(p.Src)
}

// None is the undefended network: DropTail queues, no policing.
type None struct{}

// NewNone returns the undefended control system.
func NewNone() *None { return &None{} }

// Name identifies the system.
func (*None) Name() string { return "None" }

// ProtectLink installs a DropTail queue.
func (*None) ProtectLink(l *netsim.Link) {
	l.SetQueue(aqm.NewDropTail(queueLimit(l.Rate)))
}

// ProtectAccess does nothing.
func (*None) ProtectAccess(r *netsim.Node) {}

// AttachHost installs the receiver policy shim.
func (*None) AttachHost(h *netsim.Node, pol defense.Policy) {
	h.Host.Shim = denyShim{deny: pol.Deny}
}
