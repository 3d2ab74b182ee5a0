package topo

import (
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Graph is the topology builder and the one topology view: declare
// routers, access routers, hosts and links, tag them with evaluation
// roles (sender, victim, colluder, bottleneck), and the generic
// deployment and scenario machinery does the rest. NewDumbbell,
// NewParkingLot and NewStar return the Graph they build, and
// NewRandomAS returns it as RandomAS.G. Callers read roles back through
// Groups and Bottlenecks; a bottleneck link's From and To are its
// routers.
//
// Role tagging drives three things:
//
//   - deployment knows which links to protect and, through Roles,
//     which routers police and which hosts get the defense's shim;
//   - the scenario layer addresses workload senders/victims/colluders by
//     (group, index) without knowing the wiring;
//   - deployment Plans select participating ASes among the source ASes.
//
// Declaration order is semantic: nodes and links are created on the
// underlying netsim.Network in call order, and Roles walks each group's
// access routers and hosts in declaration order. Two builders issuing
// the same call sequence produce byte-identical networks (and therefore
// identical simulation results for a seed).
//
// A partitioned run builds the graph once and binds it to its shards
// (netsim.Network.Bind): the graph, its roles and Net's nodes and links
// are whole, and each node and link carries the network of the shard
// owning it.
type Graph struct {
	Net *netsim.Network

	bottlenecks []*netsim.Link
	groups      []GraphGroup
	srcASes     []packet.ASID
	srcSeen     map[packet.ASID]bool
	built       bool
}

// GraphGroup is one sender group with its destinations and the access
// routers the defense polices it at.
type GraphGroup struct {
	// Access lists the group's policing access routers in declaration
	// order (source-AS access first is conventional, not required).
	Access []*netsim.Node
	// Senders lists the group's sender hosts; workloads index into it.
	Senders []*netsim.Node
	// Victim is the group's destination host.
	Victim *netsim.Node
	// Colluders lists the group's colluding receiver hosts.
	Colluders []*netsim.Node
}

// NewGraph returns an empty topology graph driven by eng.
func NewGraph(eng *sim.Engine) *Graph {
	return &Graph{Net: netsim.New(eng), srcSeen: map[packet.ASID]bool{}}
}

func (g *Graph) group(i int) *GraphGroup {
	for len(g.groups) <= i {
		g.groups = append(g.groups, GraphGroup{})
	}
	return &g.groups[i]
}

// Router adds a plain (transit) router: routed through, never policing.
func (g *Graph) Router(name string, as packet.ASID) *netsim.Node {
	return g.Net.NewNode(name, as)
}

// AccessRouter adds a policing access router to a group: the defense's
// ProtectAccess is installed on it when its AS participates in the plan.
func (g *Graph) AccessRouter(group int, name string, as packet.ASID) *netsim.Node {
	r := g.Net.NewNode(name, as)
	grp := g.group(group)
	grp.Access = append(grp.Access, r)
	return r
}

// Sender adds a sender host to a group. Its AS is recorded as a source
// AS — the population deployment plans select over.
func (g *Graph) Sender(group int, name string, as packet.ASID) *netsim.Node {
	h := g.Net.NewHost(name, as)
	grp := g.group(group)
	grp.Senders = append(grp.Senders, h)
	if !g.srcSeen[as] {
		g.srcSeen[as] = true
		g.srcASes = append(g.srcASes, as)
	}
	return h
}

// Victim adds a group's destination host.
func (g *Graph) Victim(group int, name string, as packet.ASID) *netsim.Node {
	h := g.Net.NewHost(name, as)
	g.group(group).Victim = h
	return h
}

// Colluder adds a colluding receiver host to a group.
func (g *Graph) Colluder(group int, name string, as packet.ASID) *netsim.Node {
	h := g.Net.NewHost(name, as)
	grp := g.group(group)
	grp.Colluders = append(grp.Colluders, h)
	return h
}

// Link connects a and b with a duplex pair of uncongested links.
func (g *Graph) Link(a, b *netsim.Node, rateBps int64, delay sim.Time) (ab, ba *netsim.Link) {
	return g.Net.Connect(a, b, rateBps, delay)
}

// BottleneckLink connects a and b and tags the a-to-b direction as a
// bottleneck: deployment installs the defense's ProtectLink on it.
func (g *Graph) BottleneckLink(a, b *netsim.Node, rateBps int64, delay sim.Time) (ab, ba *netsim.Link) {
	ab, ba = g.Net.Connect(a, b, rateBps, delay)
	g.bottlenecks = append(g.bottlenecks, ab)
	return ab, ba
}

// Build finalizes the wiring and computes routes. Idempotent.
func (g *Graph) Build() *Graph {
	if !g.built {
		g.built = true
		g.Net.ComputeRoutes()
	}
	return g
}

// Bottlenecks returns the tagged bottleneck links in declaration order.
func (g *Graph) Bottlenecks() []*netsim.Link { return g.bottlenecks }

// Groups returns the sender groups in declaration order.
func (g *Graph) Groups() []GraphGroup { return g.groups }

// SourceASes returns the ASes containing sender hosts, in first-seen
// order — the domain a deployment Plan's fraction selects over.
func (g *Graph) SourceASes() []packet.ASID {
	out := make([]packet.ASID, len(g.srcASes))
	copy(out, g.srcASes)
	return out
}

// AllASes returns every AS identifier in the topology, in node order —
// the set Passport establishes pairwise keys for.
func (g *Graph) AllASes() []packet.ASID { return g.Net.ASes() }
