package topo

import (
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
}

// DefaultStar returns the star at a configurable population; its links
// carry the dumbbell's parameters.
func DefaultStar(senders int, bottleneckBps int64) StarConfig {
	return StarConfig{Senders: senders, BottleneckBps: bottleneckBps}
}

// NewStar builds the topology and computes routes. Its one sender group
// polices at Ra, then Rv, then the colluder access routers; its one
// bottleneck is the Ra->Rv uplink.
func NewStar(eng *sim.Engine, cfg StarConfig) *Graph {
	g := NewGraph(eng)
	c := cfg.ColluderASes
	g.Net.Reserve(3+cfg.Senders+2*c, cfg.Senders+1+c, 2+cfg.Senders+2*c)

	srcAS := packet.ASID(1)
	ra := g.AccessRouter(0, "Ra", srcAS)
	numbered("s", cfg.Senders, func(name string) {
		g.Link(g.Sender(0, name, srcAS), ra, edgeBps, linkDelay)
	})

	victimAS := packet.ASID(2000)
	rv := g.AccessRouter(0, "Rv", victimAS)
	g.BottleneckLink(ra, rv, cfg.BottleneckBps, linkDelay)
	g.Link(rv, g.Victim(0, "victim", victimAS), edgeBps, linkDelay)

	for i := 0; i < cfg.ColluderASes; i++ {
		as := packet.ASID(3000 + i)
		rc := g.AccessRouter(0, nodeName("Rc", i), as)
		g.Link(rv, rc, edgeBps, linkDelay)
		g.Link(rc, g.Colluder(0, nodeName("c", i), as), edgeBps, linkDelay)
	}

	return g.Build()
}
