package topo

import (
	"fmt"

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

// NewStar builds the topology and computes routes. Its one sender group
// polices at Ra, then Rv, then the colluder access routers; its one
// bottleneck is the Ra->Rv uplink.
func NewStar(eng *sim.Engine, cfg StarConfig) *Graph {
	g := NewGraph(eng)

	srcAS := packet.ASID(1)
	ra := g.AccessRouter(0, "Ra", srcAS)
	for i := 0; i < cfg.Senders; i++ {
		g.Link(g.Sender(0, fmt.Sprintf("s%d", i), srcAS), ra, cfg.EdgeBps, cfg.Delay)
	}

	victimAS := packet.ASID(2000)
	rv := g.AccessRouter(0, "Rv", victimAS)
	g.BottleneckLink(ra, rv, cfg.BottleneckBps, cfg.Delay)
	g.Link(rv, g.Victim(0, "victim", victimAS), cfg.EdgeBps, cfg.Delay)

	for i := 0; i < cfg.ColluderASes; i++ {
		as := packet.ASID(3000 + i)
		rc := g.AccessRouter(0, fmt.Sprintf("Rc%d", i), as)
		g.Link(rv, rc, cfg.EdgeBps, cfg.Delay)
		g.Link(rc, g.Colluder(0, fmt.Sprintf("c%d", i), as), cfg.EdgeBps, cfg.Delay)
	}

	return g.Build()
}
