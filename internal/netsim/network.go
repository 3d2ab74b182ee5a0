// Package netsim is the packet-level network simulator that stands in for
// ns-2 in this reproduction: nodes joined by unidirectional links with
// configurable rate, propagation delay and queue discipline, static
// shortest-path routing, and a host stack with a pluggable defense shim
// between transport and network (where NetFence's shim header lives).
package netsim

import (
	"fmt"

	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// Network is a simulated internetwork. Build one by adding nodes and
// links, call ComputeRoutes, then attach transports and run the engine.
type Network struct {
	Eng   *sim.Engine
	Nodes []*Node
	Links []*Link

	// Pool recycles packets: transports draw from it (Host.NewPacket)
	// and the network returns packets at end of life — final delivery
	// (after the host stack has run) or drop (after the OnDrop observer
	// has run). A consumer that swallows a packet from a Node.Ingress
	// hook owns it: drop means Release, cache-and-reinject means Forward
	// later.
	Pool packet.Pool

	// Routing state, leaf-compressed: full next-hop tables are kept only
	// for "core" nodes (anything but single-link stub hosts), indexed by
	// a dense core numbering, while stubs route through their one uplink.
	// A 65k-sender topology has a few hundred core nodes, so the table is
	// kilobytes instead of the 17 GB an all-pairs node table would cost —
	// with next-hop choices bit-for-bit identical to the historical
	// full-graph BFS (see ComputeRoutes).
	coreIdx  []int32   // node -> dense core index, or -1 for stubs
	attachAt []int32   // stub node -> core index of its attachment point
	uplink   []int32   // stub node -> its single egress link index
	downlink []int32   // node -> link index from its attachment core node to it, or -1
	rtab     [][]int32 // [core][core] egress link index, or -1 when unreachable

	// OnDrop, when set, observes every packet lost at a link queue.
	// The packet returns to the pool right after the hook returns; do
	// not retain it.
	OnDrop func(p *packet.Packet, l *Link)

	// Cells is the replica's observability counter store, allocated
	// unconditionally so hot-path increments need no nil check. Each
	// replica's cells are written only by its own engine goroutine.
	Cells obs.Cells

	// Rec, when set, is the replica's packet flight recorder. Nil by
	// default: untraced runs pay exactly one nil comparison per
	// instrumented site.
	Rec *obs.Recorder

	uid  uint64
	flow uint32
}

// New returns an empty network driven by eng.
func New(eng *sim.Engine) *Network {
	return &Network{Eng: eng, Cells: obs.NewCells()}
}

// NewNode adds a router node.
func (n *Network) NewNode(name string, as packet.ASID) *Node {
	node := &Node{
		ID:   packet.NodeID(len(n.Nodes)),
		AS:   as,
		Name: name,
		net:  n,
	}
	n.Nodes = append(n.Nodes, node)
	return node
}

// NewHost adds a host node with an attached host stack.
func (n *Network) NewHost(name string, as packet.ASID) *Node {
	node := n.NewNode(name, as)
	node.IsHost = true
	node.Host = &Host{Node: node, net: n}
	return node
}

// Node returns the node with the given ID.
func (n *Network) Node(id packet.NodeID) *Node { return n.Nodes[id] }

// Connect creates a duplex connection between a and b as two independent
// unidirectional links with unbounded FIFO queues (replace Q for
// congestible links). It returns the a-to-b and b-to-a links.
//
// Connect fails fast on malformed links: nil endpoints or a non-positive
// rate panic with the offending link named, instead of surfacing later as
// a cryptic divide-by-zero in serialization-delay math.
func (n *Network) Connect(a, b *Node, rateBps int64, delay sim.Time) (ab, ba *Link) {
	ab = n.addLink(a, b, rateBps, delay)
	ba = n.addLink(b, a, rateBps, delay)
	return ab, ba
}

func (n *Network) addLink(from, to *Node, rateBps int64, delay sim.Time) *Link {
	if from == nil || to == nil {
		panic(fmt.Sprintf("netsim: link %v -> %v: nil node", from, to))
	}
	if rateBps <= 0 {
		panic(fmt.Sprintf("netsim: link %s -> %s: non-positive rate %d bps", from, to, rateBps))
	}
	l := &Link{
		Index: len(n.Links),
		ID:    packet.LinkID(len(n.Links) + 1), // 0 is the null link
		From:  from,
		To:    to,
		Rate:  rateBps,
		Delay: delay,
		Q:     &queue.FIFO{},
		org:   n.Eng.NewOrigin(originLink | uint64(len(n.Links))),
		net:   n,
	}
	n.Links = append(n.Links, l)
	from.out = append(from.out, l)
	return l
}

// LinkByID returns the link with the given LinkID, or nil.
func (n *Network) LinkByID(id packet.LinkID) *Link {
	i := int(id) - 1
	if i < 0 || i >= len(n.Links) {
		return nil
	}
	return n.Links[i]
}

// ComputeRoutes builds shortest-path (hop count) next-hop tables. Call
// it after the topology is final.
//
// The historical implementation ran one reverse BFS per destination over
// the full graph into an O(V²) table. This one compresses stubs first: a
// node with exactly one egress link whose neighbor is not itself a stub
// can only route through that uplink, and can never be transit for
// anyone else (its only inbound link mirrors the uplink), so the
// all-pairs BFS needs to cover only the core subgraph. The next-hop
// choices are bit-for-bit those of the full-graph BFS: a stub's
// discovery in the original walk always happened while processing its
// attachment node (its uplink appears in that node's inbound list), it
// contributed no further discoveries (its own inbound list holds only
// the already-seen attachment node), and a BFS rooted at a stub
// destination degenerates after one step into the BFS rooted at its
// attachment node plus the explicit downlink entry — exactly what Route
// reconstructs.
func (n *Network) ComputeRoutes() {
	num := len(n.Nodes)
	n.coreIdx = make([]int32, num)
	n.attachAt = make([]int32, num)
	n.uplink = make([]int32, num)
	n.downlink = make([]int32, num)
	var core []*Node
	for _, nd := range n.Nodes {
		n.uplink[nd.ID] = -1
		n.downlink[nd.ID] = -1
		n.attachAt[nd.ID] = -1
		if len(nd.out) == 1 && len(nd.out[0].To.out) > 1 {
			n.coreIdx[nd.ID] = -1 // stub
			continue
		}
		n.coreIdx[nd.ID] = int32(len(core))
		core = append(core, nd)
	}
	for _, nd := range n.Nodes {
		if n.coreIdx[nd.ID] >= 0 {
			n.attachAt[nd.ID] = n.coreIdx[nd.ID]
			continue
		}
		up := nd.out[0]
		n.uplink[nd.ID] = int32(up.Index)
		n.attachAt[nd.ID] = n.coreIdx[up.To.ID]
	}
	// Downlinks: the final hop from an attachment node to its stub.
	for _, l := range n.Links {
		if n.coreIdx[l.To.ID] < 0 && n.coreIdx[l.From.ID] >= 0 {
			if n.downlink[l.To.ID] < 0 {
				n.downlink[l.To.ID] = int32(l.Index)
			}
		}
	}

	// Reverse BFS per core destination over the core subgraph, walking
	// inbound links in link-declaration order — the original tie-break.
	R := len(core)
	n.rtab = make([][]int32, R)
	flat := make([]int32, R*R)
	for i := range flat {
		flat[i] = -1
	}
	for i := range n.rtab {
		n.rtab[i] = flat[i*R : (i+1)*R]
	}
	in := make([][]*Link, R)
	for _, l := range n.Links {
		fi, ti := n.coreIdx[l.From.ID], n.coreIdx[l.To.ID]
		if fi >= 0 && ti >= 0 {
			in[ti] = append(in[ti], l)
		}
	}
	qbuf := make([]int32, 0, R)
	seen := make([]bool, R)
	for dst := 0; dst < R; dst++ {
		for i := range seen {
			seen[i] = false
		}
		qbuf = append(qbuf[:0], int32(dst))
		seen[dst] = true
		for len(qbuf) > 0 {
			v := qbuf[0]
			qbuf = qbuf[1:]
			for _, l := range in[v] {
				u := n.coreIdx[l.From.ID]
				if !seen[u] {
					seen[u] = true
					n.rtab[u][dst] = int32(l.Index)
					qbuf = append(qbuf, u)
				}
			}
		}
	}
}

// routeFromCore returns the egress link index at core node fi toward
// dst, or -1.
func (n *Network) routeFromCore(fi int32, dst packet.NodeID) int32 {
	ti := n.coreIdx[dst]
	if ti >= 0 {
		return n.rtab[fi][ti]
	}
	// Stub destination: route to its attachment node, then the downlink.
	at := n.attachAt[dst]
	if at < 0 {
		return -1
	}
	if at == fi {
		return n.downlink[dst]
	}
	if n.rtab[fi][at] < 0 || n.downlink[dst] < 0 {
		return -1
	}
	return n.rtab[fi][at]
}

// Route returns the egress link at node from toward dst, or nil.
func (n *Network) Route(from *Node, dst packet.NodeID) *Link {
	if from.ID == dst {
		return nil
	}
	fi := n.coreIdx[from.ID]
	if fi < 0 {
		// Stub source: everything reachable goes through the uplink.
		up := n.Links[n.uplink[from.ID]]
		if up.To.ID == dst || n.routeFromCore(n.coreIdx[up.To.ID], dst) >= 0 {
			return up
		}
		return nil
	}
	idx := n.routeFromCore(fi, dst)
	if idx < 0 {
		return nil
	}
	return n.Links[idx]
}

// PathLinks returns the link sequence from src to dst, or nil when
// unreachable.
func (n *Network) PathLinks(src, dst packet.NodeID) []*Link {
	var path []*Link
	at := n.Nodes[src]
	for at.ID != dst {
		l := n.Route(at, dst)
		if l == nil {
			return nil
		}
		path = append(path, l)
		at = l.To
		if len(path) > len(n.Nodes) {
			return nil // routing loop; cannot happen with BFS tables
		}
	}
	return path
}

// PathASes returns the distinct downstream ASes on the path from src to
// dst, excluding src's own AS — the AS-level path Passport stamps for.
func (n *Network) PathASes(src, dst packet.NodeID) []packet.ASID {
	var ases []packet.ASID
	last := n.Nodes[src].AS
	for _, l := range n.PathLinks(src, dst) {
		if as := l.To.AS; as != last {
			ases = append(ases, as)
			last = as
		}
	}
	return ases
}

// Forward routes p from node toward its destination, dropping it (and
// returning it to the pool) when no route exists.
func (n *Network) Forward(at *Node, p *packet.Packet) {
	l := n.Route(at, p.Dst)
	if l == nil {
		n.Release(p)
		return
	}
	l.Send(p)
}

// Release returns a packet to the pool at end of life. Hand-constructed
// packets (not drawn from the pool) pass through untouched.
func (n *Network) Release(p *packet.Packet) { n.Pool.Put(p) }

// AllocPacket draws a zeroed packet from the pool.
func (n *Network) AllocPacket() *packet.Packet { return n.Pool.Get() }

// arrive processes p's arrival at node via l. A packet that reaches its
// destination is recycled once the host stack (shim, agents, observers)
// has finished with it; agents must not retain the pointer past Receive.
func (n *Network) arrive(p *packet.Packet, node *Node, l *Link) {
	if node.Ingress != nil && !node.Ingress(p, l) {
		return // the ingress hook consumed the packet and now owns it
	}
	if p.Dst == node.ID {
		if node.Host != nil {
			node.Host.Receive(p)
		}
		n.Cells.Add(obs.NetsimDelivered, 1)
		if n.Rec.Sampled(uint32(p.Flow)) {
			n.Rec.Record(int64(n.Eng.Now()), uint32(p.Flow), node.String(), obs.HopDeliver, "")
		}
		n.Release(p)
		return
	}
	n.Forward(node, p)
}

// NextUID returns a fresh packet UID.
func (n *Network) NextUID() uint64 {
	n.uid++
	return n.uid
}

// NextFlow returns a fresh flow identifier.
func (n *Network) NextFlow() packet.FlowID {
	n.flow++
	return packet.FlowID(n.flow)
}

// FlowSeq returns the flow-ID counter's position — after workload
// attachment, the number of attach-time flows (the flight recorder's
// sampling universe).
func (n *Network) FlowSeq() uint32 { return n.flow }

// SetFlowBase positions the flow-ID counter. Partitioned runs give each
// shard replica a disjoint range after attachment so flows opened at
// runtime (file and web transfers) never collide across shards.
func (n *Network) SetFlowBase(base uint32) { n.flow = base }

// NowSec returns the engine clock in whole seconds, the timestamp unit of
// the NetFence header.
func (n *Network) NowSec() uint32 {
	return uint32(n.Eng.Now() / sim.Second)
}

// Scheduling-origin ID classes (see sim.Origin): the top two bits name
// the kind of model entity, the rest identify it by numbers every
// replica of the topology agrees on. Class 0 is the engine's own
// control-point origin, so at any instant control runs first, then the
// nodes' own timers (long-armed, as a rule), then what the links have
// in flight — close to the order a global scheduling count gives.
const (
	originNode uint64 = 1 << 62 // | node ID << 32 | per-node ordinal
	originLink uint64 = 2 << 62 // | link index
)

// Node is a router or host.
type Node struct {
	ID     packet.NodeID
	AS     packet.ASID
	Name   string
	IsHost bool
	Host   *Host

	// Weight is the number of modeled senders this node aggregates: 0 or
	// 1 for an ordinary host, N>1 for a fleet attachment point standing
	// in for N statistically homogeneous senders. Defenses and probes
	// consult SenderWeight to scale per-sender state (rate-limiter
	// parameters, fair-share denominators) in closed form.
	Weight int32

	// Ingress, when set, intercepts every packet arriving at this node
	// before delivery or forwarding. Returning false consumes the packet
	// (policers use this to drop, or to cache and re-inject later via
	// Network.Forward).
	Ingress func(p *packet.Packet, from *Link) bool

	net *Network
	out []*Link
	// origins counts the scheduling origins handed out on this node.
	origins uint32
}

// NewOrigin returns the scheduling origin of one more timer-owning
// entity living on this node — a transport agent, a rate limiter, a
// shim's echo stream — for the entity to embed by value. The ID is the
// node's ID and the entity's creation ordinal on it: everything on a
// node runs on the shard owning the node, so the ordinal is the same at
// every shard count.
func (nd *Node) NewOrigin() sim.Origin {
	nd.origins++
	return nd.net.Eng.NewOrigin(originNode | uint64(uint32(nd.ID))<<32 | uint64(nd.origins))
}

// SenderWeight returns how many modeled senders the node stands for,
// never less than one.
func (nd *Node) SenderWeight() int {
	if nd.Weight > 1 {
		return int(nd.Weight)
	}
	return 1
}

// String identifies the node in traces.
func (nd *Node) String() string { return fmt.Sprintf("%s(%d)", nd.Name, nd.ID) }

// Out returns the node's egress links.
func (nd *Node) Out() []*Link { return nd.out }

// Network returns the owning network.
func (nd *Node) Network() *Network { return nd.net }

// LinkTo returns the direct egress link to neighbor, or nil.
func (nd *Node) LinkTo(neighbor *Node) *Link {
	for _, l := range nd.out {
		if l.To == neighbor {
			return l
		}
	}
	return nil
}
