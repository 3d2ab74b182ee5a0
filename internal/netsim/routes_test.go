package netsim

import (
	"fmt"
	"math/rand/v2"
	"testing"

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

// TestSparseRoutesMatchFull pins what a sparse network promises: built
// by the same call sequence as the full one, it reserves the node IDs
// and link indices of the hosts it does not own, and every next hop —
// from every node, remote ones included, to every destination — is the
// full network's link index. The random trials attach hosts across ASes
// too, which a sparse network builds as bare nodes instead of reserving.
func TestSparseRoutesMatchFull(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		build := func(owns func(packet.ASID) bool) *Network {
			rng := rand.New(rand.NewPCG(uint64(trial), 7))
			n := NewSparse(sim.New(1), owns)
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
				as := packet.ASID(at)
				if rng.IntN(4) == 0 {
					as = packet.ASID(rng.IntN(cores)) // maybe across ASes
				}
				h := n.NewHost(fmt.Sprintf("h%d", i), as)
				if rng.IntN(2) == 0 {
					n.Connect(h, routers[at], 1e6, sim.Millisecond)
				} else {
					n.Connect(routers[at], h, 1e6, sim.Millisecond)
				}
			}
			n.ComputeRoutes()
			return n
		}
		full := build(nil)
		owned := uint64(trial) * 0x9e3779b97f4a7c15 // a different subset of ASes each trial
		owns := func(as packet.ASID) bool { return owned>>uint(as)&1 == 1 }
		sparse := build(owns)

		if len(sparse.Nodes) != len(full.Nodes) || len(sparse.Links) != len(full.Links) {
			t.Fatalf("trial %d: sparse has %d nodes, %d links; full has %d, %d",
				trial, len(sparse.Nodes), len(sparse.Links), len(full.Nodes), len(full.Links))
		}
		hosts, links := 0, 0
		for id, nd := range full.Nodes {
			sn := sparse.Nodes[id]
			if sparse.ASOf(nd.ID) != nd.AS {
				t.Fatalf("trial %d: ASOf(%d) = %d, want %d", trial, id, sparse.ASOf(nd.ID), nd.AS)
			}
			if held := !nd.IsHost || owns(nd.AS); held && (sn == nil || (sn.Host == nil) != (nd.Host == nil)) {
				t.Fatalf("trial %d: node %d (AS %d) is owned but not built in full", trial, id, nd.AS)
			}
			if sn != nil && sn.Host != nil {
				hosts++
			}
		}
		for i, l := range full.Links {
			sl := sparse.Links[i]
			if sl != nil {
				links++
				if sl.From.ID != l.From.ID || sl.To.ID != l.To.ID {
					t.Fatalf("trial %d: link %d joins %v->%v, full has %v->%v", trial, i, sl.From, sl.To, l.From, l.To)
				}
				continue
			}
			h, r := l.From, l.To
			if !h.IsHost {
				h, r = r, h
			}
			if !h.IsHost || owns(h.AS) || h.AS != r.AS {
				t.Fatalf("trial %d: link %d (%v->%v) is only reserved, but it is not a remote host's link into its own AS", trial, i, l.From, l.To)
			}
		}
		if gh, gl := sparse.Materialised(); gh != hosts || gl != links {
			t.Fatalf("trial %d: Materialised() = %d hosts, %d links; the network holds %d, %d", trial, gh, gl, hosts, links)
		}
		for from := range full.Nodes {
			for dst := range full.Nodes {
				want := full.routeIndex(packet.NodeID(from), packet.NodeID(dst))
				if got := sparse.routeIndex(packet.NodeID(from), packet.NodeID(dst)); got != want {
					t.Fatalf("trial %d: next hop %d -> %d is link %d, the full network's is %d", trial, from, dst, got, want)
				}
			}
		}
	}
}

// TestSparseAccessRouterStaysCore: an access router all of whose hosts
// are remote holds one link, its uplink — a stub's shape. The reserved
// links must count toward its degree, or it leaves the core subgraph and
// nothing behind it is reachable.
func TestSparseAccessRouterStaysCore(t *testing.T) {
	n := NewSparse(sim.New(1), func(as packet.ASID) bool { return as == 2 })
	t1 := n.NewNode("t1", 1000)
	t2 := n.NewNode("t2", 1001)
	n.Connect(t1, t2, 1e6, sim.Millisecond)
	ra := n.NewNode("ra", 1)
	n.Connect(ra, t1, 1e6, sim.Millisecond)
	h := n.NewHost("h", 1)
	if ab, ba := n.Connect(h, ra, 1e6, sim.Millisecond); ab != nil || ba != nil {
		t.Fatal("a remote host's links were built")
	}
	rv := n.NewNode("rv", 2)
	n.Connect(t2, rv, 1e6, sim.Millisecond)
	v := n.NewHost("v", 2)
	n.Connect(rv, v, 1e6, sim.Millisecond)
	n.ComputeRoutes()

	if n.Nodes[h.ID] != nil || n.Nodes[v.ID] != v || v.Host == nil {
		t.Fatalf("ownership: remote host in Nodes = %v, owned host = %v", n.Nodes[h.ID], n.Nodes[v.ID])
	}
	if len(ra.Out()) != 1 || n.coreIdx[ra.ID] < 0 {
		t.Fatalf("access router with %d built link(s) has core index %d; it must stay a core node", len(ra.Out()), n.coreIdx[ra.ID])
	}
	path := n.PathLinks(v.ID, h.ID)
	if len(path) != 4 || path[3].To != ra {
		t.Fatalf("path to the remote host = %v, want 4 links ending at its access router", path)
	}
	if got := n.PathASes(nil, rv.ID, h.ID); len(got) != 3 || got[2] != 1 {
		t.Fatalf("PathASes(rv, remote host) = %v, want [1001 1000 1]", got)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("a second ComputeRoutes on a sparse network", n.ComputeRoutes)
	mustPanic("a remote host connected twice", func() {
		m := NewSparse(sim.New(1), func(packet.ASID) bool { return false })
		r1, r2 := m.NewNode("r1", 1), m.NewNode("r2", 1)
		m.Connect(r1, r2, 1e6, sim.Millisecond)
		mh := m.NewHost("mh", 1)
		m.Connect(mh, r1, 1e6, sim.Millisecond)
		m.Connect(mh, r2, 1e6, sim.Millisecond)
		m.ComputeRoutes()
	})
}
