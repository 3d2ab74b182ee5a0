package topo

import (
	"fmt"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// StarConfig parameterizes the single-AS hotspot topology: every sender
// lives in one source AS behind one access router Ra, whose uplink to
// the victim's access router is the bottleneck. It is the smallest
// topology where a single NetFence access router polices the entire
// sender population — the stress case for per-(sender, bottleneck)
// rate-limiter state (§4.3).
type StarConfig struct {
	// Senders is the number of sender hosts in the source AS.
	Senders int
	// ColluderASes adds destination-side ASes with one colluder host
	// each, reachable only across the bottleneck.
	ColluderASes int
	// BottleneckBps is the Ra->Rv uplink capacity.
	BottleneckBps int64
	// EdgeBps is the capacity of all non-bottleneck links.
	EdgeBps int64
	// Delay is the per-link propagation delay.
	Delay sim.Time
}

// DefaultStar mirrors the dumbbell's link parameters at a configurable
// population.
func DefaultStar(senders int, bottleneckBps int64) StarConfig {
	return StarConfig{
		Senders:       senders,
		BottleneckBps: bottleneckBps,
		EdgeBps:       10_000_000_000,
		Delay:         10 * sim.Millisecond,
	}
}

// Star is the constructed hotspot topology.
type Star struct {
	// G is the underlying role-tagged graph (one sender group).
	G   *Graph
	Net *netsim.Network

	// Senders, Victim and Colluders are the Graph's role lists.
	Senders []*netsim.Node
	// Access is the single source-AS access router.
	Access *netsim.Node
	// Bottleneck is the Access->VictimAccess uplink.
	Bottleneck *netsim.Link

	Victim       *netsim.Node
	VictimAccess *netsim.Node

	Colluders      []*netsim.Node
	ColluderAccess []*netsim.Node
}

// NewStar builds the topology and computes routes.
func NewStar(eng *sim.Engine, cfg StarConfig) *Star {
	g := NewGraph(eng)
	st := &Star{G: g, Net: g.Net}

	srcAS := packet.ASID(1)
	st.Access = g.AccessRouter(0, "Ra", srcAS)
	for i := 0; i < cfg.Senders; i++ {
		g.Link(g.Sender(0, fmt.Sprintf("s%d", i), srcAS), st.Access, cfg.EdgeBps, cfg.Delay)
	}

	victimAS := packet.ASID(2000)
	st.VictimAccess = g.AccessRouter(0, "Rv", victimAS)
	st.Bottleneck, _ = g.BottleneckLink(st.Access, st.VictimAccess, cfg.BottleneckBps, cfg.Delay)
	g.Link(st.VictimAccess, g.Victim(0, "victim", victimAS), cfg.EdgeBps, cfg.Delay)

	for i := 0; i < cfg.ColluderASes; i++ {
		as := packet.ASID(3000 + i)
		rc := g.AccessRouter(0, fmt.Sprintf("Rc%d", i), as)
		g.Link(st.VictimAccess, rc, cfg.EdgeBps, cfg.Delay)
		g.Link(rc, g.Colluder(0, fmt.Sprintf("c%d", i), as), cfg.EdgeBps, cfg.Delay)
		st.ColluderAccess = append(st.ColluderAccess, rc)
	}

	grp := g.groups[0]
	st.Senders, st.Victim, st.Colluders = grp.Senders, grp.Victim, grp.Colluders
	g.Build()
	return st
}

// AllASes returns every AS identifier in the topology.
func (st *Star) AllASes() []packet.ASID { return st.G.AllASes() }
