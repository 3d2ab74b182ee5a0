package baseline

import (
	"netfence/internal/defense"
	"netfence/internal/fq"
	"netfence/internal/netsim"
	"netfence/internal/packet"
)

// FQ deploys per-sender deficit-round-robin fair queuing at every
// protected link — the paper's representative of "throttle attack traffic
// to its fair share" defenses. It offers no way to remove attack traffic,
// so file transfer times grow linearly with the number of attackers
// (Figure 8).
type FQ struct{}

// NewFQ returns the fair-queuing system.
func NewFQ() *FQ { return &FQ{} }

// Name identifies the system.
func (*FQ) Name() string { return "FQ" }

// ProtectLink installs a per-sender DRR queue.
func (*FQ) ProtectLink(l *netsim.Link) {
	l.SetQueue(fq.NewDRR(fq.BySender, packet.SizeData, queueLimit(l.Rate)))
}

// ProtectAccess does nothing: FQ has no access-router role.
func (*FQ) ProtectAccess(r *netsim.Node) {}

// AttachHost installs the receiver policy shim.
func (*FQ) AttachHost(h *netsim.Node, pol defense.Policy) {
	h.Host.Shim = denyShim{deny: pol.Deny}
}
