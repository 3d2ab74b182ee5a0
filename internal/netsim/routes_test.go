package netsim

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"unsafe"

	"netfence/internal/packet"
	"netfence/internal/sim"
)

// referenceRoutes is the historical full-graph implementation: one
// reverse BFS per destination into an O(V²) next-hop table. The
// leaf-compressed ComputeRoutes must reproduce its next-hop choices —
// including tie-breaks — bit for bit, because routing decides which
// queues every packet crosses and the golden results pin that.
func referenceRoutes(n *Network) [][]int32 {
	num := len(n.Nodes)
	routes := make([][]int32, num)
	for i := range routes {
		routes[i] = make([]int32, num)
		for j := range routes[i] {
			routes[i][j] = -1
		}
	}
	in := make([][]*Link, num)
	for _, l := range n.Links {
		in[l.To.ID] = append(in[l.To.ID], l)
	}
	qbuf := make([]packet.NodeID, 0, num)
	seen := make([]bool, num)
	for dst := 0; dst < num; dst++ {
		for i := range seen {
			seen[i] = false
		}
		qbuf = qbuf[:0]
		qbuf = append(qbuf, packet.NodeID(dst))
		seen[dst] = true
		for len(qbuf) > 0 {
			v := qbuf[0]
			qbuf = qbuf[1:]
			for _, l := range in[v] {
				u := l.From.ID
				if !seen[u] {
					seen[u] = true
					routes[u][dst] = int32(l.Index)
					qbuf = append(qbuf, u)
				}
			}
		}
	}
	return routes
}

func checkRoutesMatch(t *testing.T, name string, n *Network) {
	t.Helper()
	n.ComputeRoutes()
	want := referenceRoutes(n)
	for _, from := range n.Nodes {
		for dst := range n.Nodes {
			got := n.Route(from, packet.NodeID(dst))
			gotIdx := int32(-1)
			if got != nil {
				gotIdx = int32(got.Index)
			}
			if gotIdx != want[from.ID][dst] {
				t.Fatalf("%s: Route(%v, %d) = link %d, reference BFS says %d",
					name, from, dst, gotIdx, want[from.ID][dst])
			}
		}
	}
}

// TestComputeRoutesMatchesReference pins the leaf-compressed routing
// against the full-graph BFS on hand-built shapes covering every
// classification edge: stub hosts, multi-link hosts (treated as core),
// isolated pairs, transit chains, and unreachable partitions.
func TestComputeRoutesMatchesReference(t *testing.T) {
	eng := sim.New(1)

	// Dumbbell-ish: hosts behind access routers over a transit pair.
	n := New(eng)
	rbl := n.NewNode("Rbl", 1000)
	rbr := n.NewNode("Rbr", 1000)
	n.Connect(rbl, rbr, 1e6, sim.Millisecond)
	for i := 0; i < 3; i++ {
		ra := n.NewNode(fmt.Sprintf("Ra%d", i), packet.ASID(1+i))
		n.Connect(ra, rbl, 1e9, sim.Millisecond)
		for h := 0; h < 4; h++ {
			host := n.NewHost(fmt.Sprintf("s%d.%d", i, h), packet.ASID(1+i))
			n.Connect(host, ra, 1e9, sim.Millisecond)
		}
	}
	rv := n.NewNode("Rv", 2000)
	n.Connect(rbr, rv, 1e9, sim.Millisecond)
	v := n.NewHost("victim", 2000)
	n.Connect(rv, v, 1e9, sim.Millisecond)
	checkRoutesMatch(t, "dumbbell", n)

	// Isolated pair: two single-link nodes joined to each other only —
	// neither qualifies as a stub — plus a disconnected island.
	n2 := New(eng)
	a := n2.NewHost("a", 1)
	b := n2.NewHost("b", 1)
	n2.Connect(a, b, 1e6, sim.Millisecond)
	n2.NewNode("island", 2)
	checkRoutesMatch(t, "pair", n2)

	// Multi-homed host: two uplinks disqualify it from stub compression.
	n3 := New(eng)
	r1 := n3.NewNode("r1", 1)
	r2 := n3.NewNode("r2", 2)
	r3 := n3.NewNode("r3", 3)
	n3.Connect(r1, r2, 1e6, sim.Millisecond)
	n3.Connect(r2, r3, 1e6, sim.Millisecond)
	mh := n3.NewHost("mh", 1)
	n3.Connect(mh, r1, 1e6, sim.Millisecond)
	n3.Connect(mh, r3, 1e6, sim.Millisecond)
	s := n3.NewHost("s", 2)
	n3.Connect(s, r2, 1e6, sim.Millisecond)
	checkRoutesMatch(t, "multihomed", n3)
}

// TestComputeRoutesMatchesReferenceRandom fuzzes random connected cores
// with random stub hosts and compares every (from, dst) next hop.
func TestComputeRoutesMatchesReferenceRandom(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 99))
		eng := sim.New(1)
		n := New(eng)
		cores := rng.IntN(8) + 2
		var routers []*Node
		for i := 0; i < cores; i++ {
			r := n.NewNode(fmt.Sprintf("r%d", i), packet.ASID(i))
			if i > 0 {
				n.Connect(r, routers[rng.IntN(i)], 1e6, sim.Millisecond)
			}
			routers = append(routers, r)
		}
		extra := rng.IntN(cores)
		for i := 0; i < extra; i++ {
			a, b := rng.IntN(cores), rng.IntN(cores)
			if a != b {
				n.Connect(routers[a], routers[b], 1e6, sim.Millisecond)
			}
		}
		hosts := rng.IntN(12)
		for i := 0; i < hosts; i++ {
			h := n.NewHost(fmt.Sprintf("h%d", i), packet.ASID(rng.IntN(cores)))
			n.Connect(h, routers[rng.IntN(cores)], 1e6, sim.Millisecond)
		}
		checkRoutesMatch(t, fmt.Sprintf("random-%d", trial), n)
	}
}

// TestBindSharesTheGraph pins what Bind promises: every shard's network
// shares the graph's nodes, links, node → AS table and routing arrays;
// every node carries its shard's network and every link its From node's;
// every link origin schedules on its owner's engine; and the per-shard
// censuses count exactly what the shard owns.
func TestBindSharesTheGraph(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 7))
		n := New(sim.New(1))
		cores := rng.IntN(8) + 2
		var routers []*Node
		for i := 0; i < cores; i++ {
			r := n.NewNode(fmt.Sprintf("r%d", i), packet.ASID(i))
			if i > 0 {
				n.Connect(r, routers[rng.IntN(i)], 1e6, sim.Millisecond)
			}
			routers = append(routers, r)
		}
		for i, hosts := 0, rng.IntN(16); i < hosts; i++ {
			at := rng.IntN(cores)
			n.Connect(n.NewHost(fmt.Sprintf("h%d", i), packet.ASID(at)), routers[at], 1e6, sim.Millisecond)
		}
		n.ComputeRoutes()
		totalHosts, totalLinks := n.Materialised()
		want := referenceRoutes(n)

		shards := rng.IntN(3) + 2
		shardOf := make([]int32, len(n.Nodes))
		for id, nd := range n.Nodes {
			shardOf[id] = int32(int(nd.AS) % shards)
		}
		engines := []*sim.Engine{n.Eng}
		for len(engines) < shards {
			engines = append(engines, sim.New(1))
		}
		nets := n.Bind(shardOf, engines)
		if nets[0] != n {
			t.Fatalf("trial %d: shard 0's network is not the graph's", trial)
		}
		hosts, links := 0, 0
		for i, net := range nets {
			if net.Eng != engines[i] {
				t.Fatalf("trial %d: shard %d runs on another engine", trial, i)
			}
			if unsafe.SliceData(net.Nodes) != unsafe.SliceData(n.Nodes) || unsafe.SliceData(net.Links) != unsafe.SliceData(n.Links) ||
				unsafe.SliceData(net.as) != unsafe.SliceData(n.as) || unsafe.SliceData(net.coreIdx) != unsafe.SliceData(n.coreIdx) ||
				unsafe.SliceData(net.attachAt) != unsafe.SliceData(n.attachAt) || unsafe.SliceData(net.uplink) != unsafe.SliceData(n.uplink) ||
				unsafe.SliceData(net.downlink) != unsafe.SliceData(n.downlink) || unsafe.SliceData(net.rtab) != unsafe.SliceData(n.rtab) {
				t.Fatalf("trial %d: shard %d does not share the graph's arrays", trial, i)
			}
			h, l := net.Materialised()
			if st := net.LinkStats(); st.Links != l {
				t.Fatalf("trial %d: shard %d: LinkStats counts %d links, Materialised %d", trial, i, st.Links, l)
			}
			hosts, links = hosts+h, links+l
		}
		if hosts != totalHosts || links != totalLinks {
			t.Fatalf("trial %d: the shards own %d hosts and %d links, the graph has %d and %d", trial, hosts, links, totalHosts, totalLinks)
		}
		for _, nd := range n.Nodes {
			if nd.Network() != nets[shardOf[nd.ID]] {
				t.Fatalf("trial %d: node %v is not bound to its shard %d", trial, nd, shardOf[nd.ID])
			}
		}
		for _, l := range n.Links {
			owner := nets[shardOf[l.From.ID]]
			if l.net != owner {
				t.Fatalf("trial %d: link %s is not bound to its From node's shard", trial, l.Label())
			}
			before := owner.Eng.Pending()
			ev := l.Origin().At(sim.Second, func() {})
			if owner.Eng.Pending() != before+1 {
				t.Fatalf("trial %d: link %s schedules off its owner's engine", trial, l.Label())
			}
			ev.Cancel()
		}
		for from := range n.Nodes {
			for dst := range n.Nodes {
				for i, net := range nets {
					if got := net.routeIndex(packet.NodeID(from), packet.NodeID(dst)); got != want[from][dst] {
						t.Fatalf("trial %d: shard %d: next hop %d -> %d is link %d, want %d", trial, i, from, dst, got, want[from][dst])
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Bind accepted engines that do not start with the network's own")
		}
	}()
	n := New(sim.New(1))
	n.ComputeRoutes()
	n.Bind(nil, []*sim.Engine{sim.New(1)})
}
