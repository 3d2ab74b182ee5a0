package topo

import (
	"fmt"
	"math/rand/v2"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// RandomASConfig parameterizes a seeded random AS-level graph: a random
// connected transit core (one AS per transit router), source ASes
// attached to random transit routers, and a dumbbell-style exit — one
// transit router connects across the bottleneck to the destination side
// holding the victim and colluder ASes, so all victim- and
// colluder-bound traffic crosses it. Unlike the fixed topologies, the
// AS-level paths here are multi-hop and irregular, exercising
// Passport's pairwise key stamping and NetFence's feedback across
// varied AS chains.
//
// The structure is drawn from GraphSeed alone — independent of the
// simulation engine's seed — so a scenario seed sweep varies traffic,
// not wiring.
type RandomASConfig struct {
	// Senders is the total sender population, split evenly over SrcASes.
	Senders int
	// SrcASes is the number of source ASes (0 = min(10, Senders);
	// adjusted down to the largest count dividing Senders evenly).
	SrcASes int
	// TransitASes is the size of the random transit core (0 = 4).
	TransitASes int
	// ExtraLinks adds exactly this many random extra transit-core links
	// beyond the spanning tree, capped at the complete graph (default 0;
	// extra links shorten some AS paths).
	ExtraLinks int
	// ColluderASes adds destination-side ASes with one colluder host
	// each.
	ColluderASes int
	// BottleneckBps is the exit-link capacity.
	BottleneckBps int64
	// GraphSeed seeds the structure RNG (0 = 1).
	GraphSeed uint64
}

// DefaultRandomAS mirrors the dumbbell's parameters over a 4-router
// random core.
func DefaultRandomAS(senders int, bottleneckBps int64) RandomASConfig {
	return RandomASConfig{
		Senders:       senders,
		TransitASes:   4,
		BottleneckBps: bottleneckBps,
		GraphSeed:     1,
	}
}

// RandomAS is the constructed random AS-level topology: its Graph plus
// the router lists the Graph's roles do not name.
type RandomAS struct {
	// G is the underlying role-tagged graph (one sender group).
	G   *Graph
	Net *netsim.Network

	// Senders is the Graph's sender list.
	Senders []*netsim.Node
	// SrcAccess lists the source-AS access routers, in AS order.
	SrcAccess []*netsim.Node
	// Transit lists the random-core routers, one AS each.
	Transit []*netsim.Node
}

// NewRandomAS builds the topology and computes routes.
func NewRandomAS(eng *sim.Engine, cfg RandomASConfig) (*RandomAS, error) {
	if cfg.Senders <= 0 {
		return nil, fmt.Errorf("RandomAS: Senders must be positive")
	}
	transit := cfg.TransitASes
	if transit <= 0 {
		transit = 4
	}
	// The declared population is a contract: SplitEvenly lowers the AS
	// count to the largest divisor.
	srcASes, perAS := SplitEvenly(cfg.Senders, cfg.SrcASes)
	seed := cfg.GraphSeed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewPCG(seed, 0x6e65746665_6e6365)) // "netfence"

	possible := transit*(transit-1)/2 - (transit - 1)
	want := cfg.ExtraLinks
	if want > possible {
		want = possible
	}
	g := NewGraph(eng)
	srcNodes, c := srcASes*(1+perAS), cfg.ColluderASes
	g.Net.Reserve(transit+srcNodes+3+2*c, srcASes*perAS+1+c, transit-1+want+srcNodes+3+2*c)
	r := &RandomAS{G: g, Net: g.Net, Transit: make([]*netsim.Node, 0, transit), SrcAccess: make([]*netsim.Node, 0, srcASes)}

	// Random connected transit core: a uniform random spanning tree by
	// attachment (router i links to a uniform earlier router), plus
	// optional extra links.
	for i := 0; i < transit; i++ {
		t := g.Router(nodeName("T", i), packet.ASID(1000+i))
		r.Transit = append(r.Transit, t)
		if i > 0 {
			parent := r.Transit[rng.IntN(i)]
			g.Link(t, parent, edgeBps, linkDelay)
		}
	}
	// Extra links: exactly min(ExtraLinks, what the core can still hold)
	// distinct non-tree edges, redrawing collisions so the configured
	// density is honored.
	linked := map[[2]int]bool{}
	for added, attempts := 0, 0; added < want && attempts < 100*want+100; attempts++ {
		a, b := rng.IntN(transit), rng.IntN(transit)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if linked[key] || r.Transit[a].LinkTo(r.Transit[b]) != nil {
			continue
		}
		linked[key] = true
		g.Link(r.Transit[a], r.Transit[b], edgeBps, linkDelay)
		added++
	}

	// Source ASes hang off random transit routers.
	for i := 0; i < srcASes; i++ {
		as := packet.ASID(1 + i)
		ra := g.AccessRouter(0, nodeName("Ra", i), as)
		r.SrcAccess = append(r.SrcAccess, ra)
		g.Link(ra, r.Transit[rng.IntN(transit)], edgeBps, linkDelay)
		numbered(nodeName("s", i)+".", perAS, func(name string) {
			g.Link(g.Sender(0, name, as), ra, edgeBps, linkDelay)
		})
	}

	// The exit: a random core router crosses the bottleneck to Rd, the
	// destination-side router every victim- and colluder-bound packet
	// must reach.
	exit := r.Transit[rng.IntN(transit)]
	rd := g.Router("Rd", packet.ASID(1999))
	g.BottleneckLink(exit, rd, cfg.BottleneckBps, linkDelay)

	victimAS := packet.ASID(2000)
	rv := g.AccessRouter(0, "Rv", victimAS)
	g.Link(rd, rv, edgeBps, linkDelay)
	g.Link(rv, g.Victim(0, "victim", victimAS), edgeBps, linkDelay)

	for i := 0; i < cfg.ColluderASes; i++ {
		as := packet.ASID(3000 + i)
		rc := g.AccessRouter(0, nodeName("Rc", i), as)
		g.Link(rd, rc, edgeBps, linkDelay)
		g.Link(rc, g.Colluder(0, nodeName("c", i), as), edgeBps, linkDelay)
	}

	r.Senders = g.groups[0].Senders
	g.Build()
	return r, nil
}
