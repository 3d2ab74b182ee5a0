package topo

import (
	"netfence/internal/netsim"
	"netfence/internal/packet"
)

// Plan selects which ASes participate in a deployment — the paper's
// partial/incremental-deployment axis. The zero value is full
// deployment. Non-participating ("legacy") ASes keep forwarding traffic
// but get no policing access routers and no host shims, so their
// packets carry no congestion policing feedback and a NetFence
// bottleneck demotes them to the best-effort legacy channel.
type Plan struct {
	// Legacy marks ASes that do NOT deploy the defense.
	Legacy map[packet.ASID]bool
}

// Participates reports whether an AS deploys the defense under the plan.
func (p Plan) Participates(as packet.ASID) bool { return !p.Legacy[as] }

// Fraction reports the deployed fraction of the given source ASes under
// the plan (1 when srcASes is empty).
func (p Plan) Fraction(srcASes []packet.ASID) float64 {
	if len(srcASes) == 0 {
		return 1
	}
	n := 0
	for _, as := range srcASes {
		if p.Participates(as) {
			n++
		}
	}
	return float64(n) / float64(len(srcASes))
}

// PlanFraction returns a Plan deploying the defense on round(f·n) of the
// n given source ASes. The participants are chosen at evenly spaced
// indices (deterministically, no RNG), so participation interleaves with
// AS declaration order instead of clustering on a prefix.
func PlanFraction(srcASes []packet.ASID, f float64) Plan {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	n := len(srcASes)
	m := int(f*float64(n) + 0.5)
	legacy := map[packet.ASID]bool{}
	for i, as := range srcASes {
		// i is selected when the cumulative quota floor(k·m/n) advances.
		if !(i*m/n < (i+1)*m/n) {
			legacy[as] = true
		}
	}
	return Plan{Legacy: legacy}
}

// Roles visits, group by group in declaration order, every access
// router and then every sender, the victim and every colluder whose AS
// in selects (victim tells the group's victim apart): the one walk a
// defense is installed, disarmed and re-armed by.
func (g *Graph) Roles(in func(packet.ASID) bool, router func(*netsim.Node), host func(h *netsim.Node, victim bool)) {
	for i := range g.groups {
		grp := &g.groups[i]
		for _, r := range grp.Access {
			if in(r.AS) {
				router(r)
			}
		}
		for _, h := range grp.Senders {
			if in(h.AS) {
				host(h, false)
			}
		}
		if v := grp.Victim; v != nil && in(v.AS) {
			host(v, true)
		}
		for _, c := range grp.Colluders {
			if in(c.AS) {
				host(c, false)
			}
		}
	}
}
