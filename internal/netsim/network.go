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
	Eng *sim.Engine
	// Nodes and Links are indexed by node ID and link index. On a sparse
	// network (NewSparse) the slots of hosts it does not own, and of the
	// links joining them to their access routers, are reserved and nil.
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

	// owns says which ASes' hosts the network materialises; nil owns
	// every AS.
	owns func(packet.ASID) bool
	// as maps every node ID, remote hosts included, to its AS.
	as []packet.ASID
	// remote lists the reserved hosts until ComputeRoutes folds them into
	// the routing arrays.
	remote []remoteHost
	// hosts and links count what the network materialised.
	hosts, links int
	// cutThrough and queued count Link.Send by path; cutHWM is the
	// backlog high-water mark the bypassed FIFOs would have reported.
	cutThrough, queued, cutHWM uint64
	// outboxes are the mailboxes of the cut links leaving this replica;
	// the rest is the handoff census (see HandoffStats).
	outboxes                       []*Mailbox
	lent, sentHome, keyed, fifoHWM uint64
}

// remoteHost is a host whose AS the network does not own: a reserved
// node ID and, for the duplex connection to its access router at, a
// reserved pair of link indices. Nothing is scheduled on a remote host
// and nothing is forwarded over its links here — the shard owning its
// AS does both — but other nodes still route toward it.
type remoteHost struct {
	id, at   packet.NodeID
	up, down int32
}

// New returns an empty network driven by eng.
func New(eng *sim.Engine) *Network { return NewSparse(eng, nil) }

// NewSparse returns an empty network that materialises only the hosts
// of the ASes owns accepts (nil accepts all) — one shard's replica of a
// partitioned topology. Routers, the links between them and every node
// ID and link index are what the full network has: a host of another AS
// keeps its ID, its AS and its place in the routing arrays, and costs
// nothing else.
func NewSparse(eng *sim.Engine, owns func(packet.ASID) bool) *Network {
	return &Network{Eng: eng, Cells: obs.NewCells(), owns: owns}
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
	n.as = append(n.as, as)
	return node
}

// NewHost adds a host node with an attached host stack. For a host of
// an AS the network does not own it reserves the node ID and returns a
// placeholder — ID and AS, no Host — that is not in Nodes and serves
// only to be passed to Connect.
func (n *Network) NewHost(name string, as packet.ASID) *Node {
	if n.owns != nil && !n.owns(as) {
		node := &Node{ID: packet.NodeID(len(n.Nodes)), AS: as, IsHost: true, net: n}
		n.Nodes = append(n.Nodes, nil)
		n.as = append(n.as, as)
		return node
	}
	node := n.NewNode(name, as)
	node.IsHost = true
	node.Host = &Host{Node: node}
	n.hosts++
	return node
}

// Node returns the node with the given ID, nil for a remote host.
func (n *Network) Node(id packet.NodeID) *Node { return n.Nodes[id] }

// ASOf returns the AS of the node with the given ID, remote hosts
// included.
func (n *Network) ASOf(id packet.NodeID) packet.ASID { return n.as[id] }

// ASes returns every AS in the topology in node order, remote hosts
// counted — the set Passport establishes pairwise keys for.
func (n *Network) ASes() []packet.ASID {
	seen := map[packet.ASID]bool{}
	var out []packet.ASID
	for _, as := range n.as {
		if !seen[as] {
			seen[as] = true
			out = append(out, as)
		}
	}
	return out
}

// Materialised returns how many hosts and links the network holds as
// structs, as opposed to reserved slots.
func (n *Network) Materialised() (hosts, links int) { return n.hosts, n.links }

// Connect creates a duplex connection between a and b as two independent
// unidirectional links, allocated as one pair, with the default FIFO
// (assign Q on congestible links). It returns the a-to-b and b-to-a links.
//
// Connect fails fast on malformed links: nil endpoints or a non-positive
// rate panic with the offending link named, instead of surfacing later as
// a cryptic divide-by-zero in serialization-delay math.
//
// When one end is a remote host's placeholder and the other a node of
// the same AS — which the network does not own either, and ASes are the
// unit of ownership, so this network never forwards on the pair — the
// two link indices are reserved and the links returned are nil. A
// placeholder connected any other way (across ASes: a link some shard
// may have to hand packets over) becomes a bare node, in Nodes but
// without a Host, and its links are built.
func (n *Network) Connect(a, b *Node, rateBps int64, delay sim.Time) (ab, ba *Link) {
	if a == nil || b == nil {
		panic(fmt.Sprintf("netsim: link %v -> %v: nil node", a, b))
	}
	if rateBps <= 0 {
		panic(fmt.Sprintf("netsim: link %s -> %s: non-positive rate %d bps", a, b, rateBps))
	}
	ra, rb := n.Nodes[a.ID] != a, n.Nodes[b.ID] != b
	if ra != rb && a.AS == b.AS {
		idx := int32(len(n.Links))
		n.Links = append(n.Links, nil, nil)
		rh := remoteHost{id: a.ID, at: b.ID, up: idx, down: idx + 1}
		if rb {
			rh = remoteHost{id: b.ID, at: a.ID, up: idx + 1, down: idx}
		}
		n.remote = append(n.remote, rh)
		return nil, nil
	}
	n.Nodes[a.ID], n.Nodes[b.ID] = a, b // a placeholder becomes a bare node
	pair := new([2]Link)
	n.addLink(&pair[0], a, b, rateBps, delay)
	n.addLink(&pair[1], b, a, rateBps, delay)
	return &pair[0], &pair[1]
}

func (n *Network) addLink(l *Link, from, to *Node, rateBps int64, delay sim.Time) {
	*l = Link{
		Index: len(n.Links),
		ID:    packet.LinkID(len(n.Links) + 1), // 0 is the null link
		From:  from,
		To:    to,
		Rate:  rateBps,
		Delay: delay,
		org:   n.Eng.NewOrigin(originLink | uint64(len(n.Links))),
		net:   n,
	}
	n.Links = append(n.Links, l)
	n.links++
	from.out = append(from.out, l)
}

// LinkStats is the link census: links held, links without a queue object,
// Send calls by path, and the highest backlog in bytes of any one queue
// (the default FIFOs that packets cut through included).
type LinkStats struct {
	Links, Queueless             int
	CutThrough, Queued, QueueHWM uint64
}

// LinkStats walks the links; call it at a control point.
func (n *Network) LinkStats() LinkStats {
	st := LinkStats{Links: n.links, CutThrough: n.cutThrough, Queued: n.queued, QueueHWM: n.cutHWM}
	for _, l := range n.Links {
		if l == nil {
			continue // reserved: a remote host's link
		}
		if l.Q == nil {
			st.Queueless++
		} else if hw, ok := l.Q.(queue.HighWaterer); ok {
			st.QueueHWM = max(st.QueueHWM, uint64(hw.HighWater()))
		}
	}
	return st
}

// HandoffStats is the cut-link census of one replica: packets its cut
// links lent to other shards and borrowed from them, idle structs it sent
// home for those and still owes, empties come home and not yet adopted
// (idle here, like the free list), arrivals that needed a keyed event of
// their own, and the deepest any inbound FIFO stood after a drain.
type HandoffStats struct {
	Lent, Borrowed, SentHome, Debt, Home, Keyed, FIFOHWM uint64
}

// HandoffStats reads the census; call it at a control point.
func (n *Network) HandoffStats() HandoffStats {
	borrowed := n.Cells[obs.NetsimHandoffPackets]
	st := HandoffStats{Lent: n.lent, Borrowed: borrowed, SentHome: n.sentHome,
		Debt: borrowed - n.sentHome, Keyed: n.keyed, FIFOHWM: n.fifoHWM}
	for _, mb := range n.outboxes {
		st.Home += uint64(len(mb.empties))
	}
	return st
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
//
// A remote host (see NewSparse) is a stub by construction. Its reserved
// links count toward its access router's degree, so the router stays the
// core node it is in the full network — also when every host behind it
// is remote and one uplink is all it holds — and, with the core subgraph
// and the link order unchanged, every next hop is the full network's.
// The reservations are folded into the routing arrays and released, so a
// sparse network computes its routes once.
func (n *Network) ComputeRoutes() {
	if n.owns != nil && n.coreIdx != nil {
		panic("netsim: ComputeRoutes ran twice on a sparse network")
	}
	num := len(n.Nodes)
	n.coreIdx = make([]int32, num)
	n.attachAt = make([]int32, num)
	n.uplink = make([]int32, num)
	n.downlink = make([]int32, num)
	degree := make([]int32, num)
	for _, nd := range n.Nodes {
		if nd != nil {
			degree[nd.ID] = int32(len(nd.out))
		}
	}
	for _, r := range n.remote {
		degree[r.at]++
	}
	var core []*Node
	for id, nd := range n.Nodes {
		n.uplink[id] = -1
		n.downlink[id] = -1
		n.attachAt[id] = -1
		if nd == nil || len(nd.out) == 1 && degree[id] == 1 && degree[nd.out[0].To.ID] > 1 {
			n.coreIdx[id] = -1 // stub
			continue
		}
		n.coreIdx[id] = int32(len(core))
		core = append(core, nd)
	}
	for _, nd := range n.Nodes {
		if nd == nil {
			continue
		}
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
		if l != nil && n.coreIdx[l.To.ID] < 0 && n.coreIdx[l.From.ID] >= 0 {
			if n.downlink[l.To.ID] < 0 {
				n.downlink[l.To.ID] = int32(l.Index)
			}
		}
	}
	for _, r := range n.remote {
		if n.Nodes[r.id] != nil || n.uplink[r.id] >= 0 {
			panic(fmt.Sprintf("netsim: remote host %d is connected more than once; a sparse network holds singly attached hosts only", r.id))
		}
		n.uplink[r.id], n.downlink[r.id] = r.up, r.down
		n.attachAt[r.id] = n.coreIdx[r.at]
	}
	n.remote = nil

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
		if l == nil {
			continue
		}
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

// routeIndex returns the index of the egress link at node from toward
// dst, or -1.
func (n *Network) routeIndex(from, dst packet.NodeID) int32 {
	if from == dst {
		return -1
	}
	fi := n.coreIdx[from]
	if fi >= 0 {
		return n.routeFromCore(fi, dst)
	}
	// Stub source: everything reachable goes through the uplink.
	at := n.attachAt[from]
	if n.coreIdx[dst] == at || n.routeFromCore(at, dst) >= 0 {
		return n.uplink[from]
	}
	return -1
}

// Route returns the egress link at node from toward dst, or nil.
func (n *Network) Route(from *Node, dst packet.NodeID) *Link {
	idx := n.routeIndex(from.ID, dst)
	if idx < 0 {
		return nil
	}
	return n.Links[idx]
}

// walkPath calls visit for every link on the route from src to dst, in
// order, and reports whether dst is reachable. On a sparse network the
// walk ends where it meets a reserved link: at the access router of a
// remote dst, one hop short and inside dst's AS, or at once when src
// itself is remote.
func (n *Network) walkPath(src, dst packet.NodeID, visit func(*Link)) bool {
	for at, hops := src, 0; at != dst; hops++ {
		idx := n.routeIndex(at, dst)
		if idx < 0 || hops > len(n.Nodes) { // no route, or a loop BFS tables cannot have
			return false
		}
		l := n.Links[idx]
		if l == nil {
			break
		}
		visit(l)
		at = l.To.ID
	}
	return true
}

// PathLinks returns the link sequence from src to dst (see walkPath), or
// nil when unreachable.
func (n *Network) PathLinks(src, dst packet.NodeID) []*Link {
	var path []*Link
	if !n.walkPath(src, dst, func(l *Link) { path = append(path, l) }) {
		return nil
	}
	return path
}

// PathASes resolves into buf[:0] the distinct downstream ASes on the
// path from src to dst, excluding src's own AS — the AS-level path
// Passport stamps for; empty when unreachable. It allocates only when
// buf is too small.
func (n *Network) PathASes(buf []packet.ASID, src, dst packet.NodeID) []packet.ASID {
	ases, last := buf[:0], n.as[src]
	if !n.walkPath(src, dst, func(l *Link) {
		if as := l.To.AS; as != last {
			ases = append(ases, as)
			last = as
		}
	}) {
		return buf[:0]
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
		if n.Rec.Sampled(uint64(p.Flow)) {
			n.Rec.Record(int64(n.Eng.Now()), uint64(p.Flow), node.String(), obs.HopDeliver, "")
		}
		n.Release(p)
		return
	}
	n.Forward(node, p)
}

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

// ControlStream is the random-stream ID (sim.Engine.KeyStream) of
// control-plane setup no model entity owns — Passport's key exchange.
// No scheduling origin has its class, so its draws are no entity's.
const ControlStream uint64 = 3 << 62

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

	// AccessSlot is the 1-based index of the per-sender state the host's
	// access router keeps for it (0: none yet) — the port number a
	// router knows an attached host by, so policing finds that state
	// without hashing the source address. Written and checked by the
	// router; see core.AccessRouter.
	AccessSlot int32

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
func (nd *Node) NewOrigin() sim.Origin { return nd.OriginAt(nd.ReserveOrigin()) }

// ReserveOrigin hands out the node's next origin ordinal without making
// the origin, for an entity that may never schedule anything: whatever
// is created on the node after it keeps the ordinal, and so the ID, it
// would have had if the origin were made now.
func (nd *Node) ReserveOrigin() uint32 {
	nd.origins++
	return nd.origins
}

// NewFlow mints the ID of one more flow sent from this node: the node's
// ID and an ordinal reserved like an origin's, so the flow has the same
// ID at every shard count and no origin on the node changes order.
func (nd *Node) NewFlow() packet.FlowID {
	return packet.FlowID(uint64(uint32(nd.ID))<<32 | uint64(nd.ReserveOrigin()))
}

// OriginAt returns the origin of the ordinal a ReserveOrigin on this node
// returned.
func (nd *Node) OriginAt(ord uint32) sim.Origin {
	return nd.net.Eng.NewOrigin(originNode | uint64(uint32(nd.ID))<<32 | uint64(ord))
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
