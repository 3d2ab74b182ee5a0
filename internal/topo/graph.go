package topo

import (
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Graph is the open topology builder every concrete topology in this
// package is made of: declare routers, access routers, hosts and links,
// tag them with evaluation roles (sender, victim, colluder, bottleneck),
// and the generic deployment and scenario machinery does the rest. The
// Dumbbell and ParkingLot builders are thin wrappers over Graph, and
// third-party topologies registered through Register are Graphs too.
//
// Role tagging drives three things:
//
//   - Deploy knows which links to protect, which routers police, and
//     which hosts get the defense's shim;
//   - the scenario layer addresses workload senders/victims/colluders by
//     (group, index) without knowing the wiring;
//   - deployment Plans select participating ASes among the source ASes.
//
// Declaration order is semantic: nodes and links are created on the
// underlying netsim.Network in call order, and Deploy walks bottlenecks,
// then each group's access routers and hosts, in declaration order. Two
// builders issuing the same call sequence produce byte-identical
// networks (and therefore identical simulation results for a seed).
//
// A graph built by an in-tree topology for one shard of a partitioned
// run is sparse (see Sparse): routers, the links between them, roles,
// node IDs and link indices are those of the full graph, but only the
// hosts of the ASes the shard owns exist. The host constructors return
// a placeholder for any other host, good only for passing to Link, and
// its slot in the role lists is nil.
type Graph struct {
	Net *netsim.Network

	bottlenecks []*netsim.Link
	groups      []GraphGroup
	srcASes     []packet.ASID
	srcSeen     map[packet.ASID]bool
	built       bool
	// sparse says the graph was asked to hold some ASes' hosts only.
	sparse bool
	// remoteWeight holds what WeighSender was told about senders the
	// graph does not hold.
	remoteWeight map[packet.NodeID]int32
}

// GraphGroup is one sender group with its destinations and the access
// routers Deploy protects for it.
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

	// senderIDs parallels Senders on a sparse graph, where it names the
	// senders Senders has nil for.
	senderIDs []packet.NodeID
}

// NewGraph returns an empty topology graph driven by eng.
func NewGraph(eng *sim.Engine) *Graph { return newGraph(eng, nil) }

// newGraph returns an empty graph that holds the hosts of the ASes owns
// accepts.
func newGraph(eng *sim.Engine, owns ownership) *Graph {
	return &Graph{
		Net:     netsim.NewSparse(eng, owns),
		srcSeen: map[packet.ASID]bool{},
		sparse:  owns != nil,
	}
}

// ownership says which ASes' hosts a build materialises; nil owns every
// AS. It rides, unexported, in BuildOptions and in the config of every
// in-tree topology, where only Sparse can set it: a replica is sparse
// because the sharded executor built it, never because a caller asked.
type ownership func(packet.ASID) bool

func (o *ownership) setOwns(owns func(packet.ASID) bool) { *o = owns }

// Sparse returns cfg — BuildOptions, or the config of an in-tree
// topology — building only the hosts of the ASes owns accepts. A
// third-party Builder never sees the request and builds every host,
// which is correct and merely costs the memory.
func Sparse[C any, P interface {
	*C
	setOwns(func(packet.ASID) bool)
}](cfg C, owns func(packet.ASID) bool) C {
	P(&cfg).setOwns(owns)
	return cfg
}

// held returns h where the graph holds it as a host, nil for the
// placeholder of a remote one: what a role list stores.
func held(h *netsim.Node) *netsim.Node {
	if h.Host == nil {
		return nil
	}
	return h
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

// AccessRouter adds a policing access router to a group: Deploy installs
// the defense's ProtectAccess on it when its AS participates in the plan.
func (g *Graph) AccessRouter(group int, name string, as packet.ASID) *netsim.Node {
	r := g.Net.NewNode(name, as)
	grp := g.group(group)
	grp.Access = append(grp.Access, r)
	return r
}

// Host adds a host carrying no evaluation role (traffic can still be
// attached to it manually; Deploy ignores it).
func (g *Graph) Host(name string, as packet.ASID) *netsim.Node {
	return g.Net.NewHost(name, as)
}

// Sender adds a sender host to a group. Its AS is recorded as a source
// AS — the population deployment plans select over.
func (g *Graph) Sender(group int, name string, as packet.ASID) *netsim.Node {
	h := g.Net.NewHost(name, as)
	grp := g.group(group)
	grp.Senders = append(grp.Senders, held(h))
	if g.sparse {
		grp.senderIDs = append(grp.senderIDs, h.ID)
	}
	if !g.srcSeen[as] {
		g.srcSeen[as] = true
		g.srcASes = append(g.srcASes, as)
	}
	return h
}

// Victim adds a group's destination host.
func (g *Graph) Victim(group int, name string, as packet.ASID) *netsim.Node {
	h := g.Net.NewHost(name, as)
	g.group(group).Victim = held(h)
	return h
}

// Colluder adds a colluding receiver host to a group.
func (g *Graph) Colluder(group int, name string, as packet.ASID) *netsim.Node {
	h := g.Net.NewHost(name, as)
	grp := g.group(group)
	grp.Colluders = append(grp.Colluders, held(h))
	return h
}

// Link connects a and b with a duplex pair of uncongested links.
func (g *Graph) Link(a, b *netsim.Node, rateBps int64, delay sim.Time) (ab, ba *netsim.Link) {
	return g.Net.Connect(a, b, rateBps, delay)
}

// BottleneckLink connects a and b and tags the a-to-b direction as a
// bottleneck: Deploy installs the defense's ProtectLink on it.
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

// WeighSender makes sender idx of a group count as w modeled senders
// when the graph is partitioned — the weight of a fleet attachment
// point, known before the host that will carry it is built. A sender
// the graph holds takes it as its node's Weight.
func (g *Graph) WeighSender(group, idx int, w int32) {
	grp := &g.groups[group]
	if h := grp.Senders[idx]; h != nil {
		h.Weight = w
		return
	}
	if g.remoteWeight == nil {
		g.remoteWeight = map[packet.NodeID]int32{}
	}
	g.remoteWeight[grp.senderIDs[idx]] = w
}
