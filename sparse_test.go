package netfence

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
)

// sparseTopologies are the wirings the one-graph tests build on one
// engine and bind to every shard count: the four in-tree topologies, the
// random one under three graph seeds (3 and 4 are the wirings whose
// sharded runs once diverged).
var sparseTopologies = []struct {
	name string
	spec TopologySpec
}{
	{"random-as/1", RandomASSpec{Senders: 64, BottleneckBps: 6_400_000, SrcASes: 8, TransitASes: 6, ExtraLinks: 3, ColluderASes: 3, GraphSeed: 1}},
	{"random-as/3", RandomASSpec{Senders: 64, BottleneckBps: 6_400_000, SrcASes: 8, TransitASes: 6, ExtraLinks: 3, ColluderASes: 3, GraphSeed: 3}},
	{"random-as/4", RandomASSpec{Senders: 64, BottleneckBps: 6_400_000, SrcASes: 8, TransitASes: 6, ExtraLinks: 3, ColluderASes: 3, GraphSeed: 4}},
	{"dumbbell", DumbbellSpec{Senders: 40, BottleneckBps: 4_000_000, ColluderASes: 3}},
	{"parking-lot", ParkingLotSpec{SendersPerGroup: 10, L1Bps: 4_000_000, L2Bps: 2_000_000}},
	{"star", StarSpec{Senders: 16, BottleneckBps: 3_200_000, ColluderASes: 6}},
}

func mustBuildTopo(t *testing.T, spec TopologySpec) *builtTopo {
	t.Helper()
	bt, err := spec.buildTopo(sim.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// sliceData returns the backing array of the slice in field name of v,
// a pointer to a struct: the test's view of what two networks share.
func sliceData(v any, name string) uintptr {
	return reflect.ValueOf(v).Elem().FieldByName(name).Pointer()
}

// TestOneGraph pins the one-graph binding of a sharded run: every
// shard's network shares the graph's node and link tables, node → AS
// table and routing arrays; every node carries its owner's network and
// every link its From node's; and every link origin schedules on its
// owner's engine.
func TestOneGraph(t *testing.T) {
	for _, tc := range sparseTopologies {
		for _, shards := range []int{2, 4, 8} {
			in, err := Scenario{
				Name: tc.name, Seed: 1, Topology: tc.spec,
				Workloads: []Workload{LongTCP{Senders: Range(0, 4)}},
				Duration:  Second, Shards: shards,
			}.Build()
			if err != nil {
				t.Fatalf("%s: shards=%d: %v", tc.name, shards, err)
			}
			in.Stop()
			name := fmt.Sprintf("%s: shards=%d", tc.name, shards)
			st := in.env.sh
			g := in.Net
			if len(st.nets) != shards || st.nets[0] != g {
				t.Fatalf("%s: %d networks, shard 0's the graph's: %v", name, len(st.nets), st.nets[0] == g)
			}
			for i, n := range st.nets {
				if unsafe.SliceData(n.Nodes) != unsafe.SliceData(g.Nodes) || unsafe.SliceData(n.Links) != unsafe.SliceData(g.Links) {
					t.Fatalf("%s: shard %d has node and link tables of its own", name, i)
				}
				for _, field := range []string{"as", "coreIdx", "attachAt", "uplink", "downlink", "rtab"} {
					if sliceData(n, field) != sliceData(g, field) {
						t.Fatalf("%s: shard %d has a %s array of its own", name, i, field)
					}
				}
				if n.Eng != in.Engines[i] {
					t.Fatalf("%s: shard %d's network runs on another engine", name, i)
				}
			}
			for _, nd := range g.Nodes {
				if nd.Network() != st.nets[st.shardOf(nd.ID)] {
					t.Fatalf("%s: node %v is not bound to its shard %d", name, nd, st.shardOf(nd.ID))
				}
			}
			for _, l := range g.Links {
				owner := st.shardOf(l.From.ID)
				if sliceData(l, "net") != uintptr(unsafe.Pointer(st.nets[owner])) {
					t.Fatalf("%s: link %s is not bound to its From node's shard %d", name, l.Label(), owner)
				}
				eng := in.Engines[owner]
				before := eng.Pending()
				ev := l.Origin().At(in.Scenario.Duration, func() {})
				if eng.Pending() != before+1 {
					t.Fatalf("%s: link %s does not schedule on its owner's engine (shard %d)", name, l.Label(), owner)
				}
				ev.Cancel()
			}
		}
	}
}

// TestSparseReplicaRoutesMatchFull shows, instead of assuming, that the
// one graph of a sharded run routes like the single engine's build: the
// partition is the single engine's graph's, a fleet attachment point
// pulling the split the same way, each shard's network picks the single
// build's link — by index — from each node it owns toward every
// destination, and the AS path Passport stamps from each access router
// it owns is the single build's, element for element.
func TestSparseReplicaRoutesMatchFull(t *testing.T) {
	for _, tc := range sparseTopologies {
		full := mustBuildTopo(t, tc.spec)
		full.groups[0].senders[3].Weight = 1000
		fullHosts, _ := full.net.Materialised()
		for _, shards := range []int{2, 4, 8} {
			want, err := full.graph.Partition(shards)
			if err != nil {
				t.Fatalf("%s: shards=%d: %v", tc.name, shards, err)
			}
			sc := Scenario{Name: tc.name, Seed: 1, Topology: tc.spec, Workloads: []Workload{FleetSpec{Count: 1000, Senders: []int{3}}}}
			st, bt, part, err := sc.bindShards(shards)
			if err != nil {
				t.Fatalf("%s: shards=%d: %v", tc.name, shards, err)
			}
			cuts := func(p *topo.Partition) (idx []int) {
				for _, l := range p.CutLinks {
					idx = append(idx, l.Index)
				}
				return idx
			}
			if !slices.Equal(part.ShardOfNode, want.ShardOfNode) || !slices.Equal(cuts(part), cuts(want)) || part.Lookahead != want.Lookahead {
				t.Fatalf("%s: shards=%d: the run partitions differently from the single engine's graph", tc.name, shards)
			}
			hosts := 0
			for r, n := range st.nets {
				name := fmt.Sprintf("%s: shards=%d: shard %d", tc.name, shards, r)
				if len(n.Nodes) != len(full.net.Nodes) || len(n.Links) != len(full.net.Links) {
					t.Fatalf("%s has %d nodes and %d links, the single build %d and %d",
						name, len(n.Nodes), len(n.Links), len(full.net.Nodes), len(full.net.Links))
				}
				h, _ := n.Materialised()
				hosts += h
				for id, fn := range full.net.Nodes {
					if int(part.ShardOfNode[id]) != r {
						continue
					}
					for dst := range full.net.Nodes {
						got, want := -1, -1
						if l := n.Route(n.Nodes[id], packet.NodeID(dst)); l != nil {
							got = l.Index
						}
						if l := full.net.Route(fn, packet.NodeID(dst)); l != nil {
							want = l.Index
						}
						if got != want {
							t.Fatalf("%s: next hop %v -> %d is link %d, the single build's is %d", name, fn, dst, got, want)
						}
					}
				}
				for _, grp := range bt.graph.Groups() {
					for _, ar := range grp.Access {
						if int(part.ShardOfNode[ar.ID]) != r {
							continue
						}
						for dst := range full.net.Nodes {
							got := n.PathASes(nil, ar.ID, packet.NodeID(dst))
							if want := full.net.PathASes(nil, ar.ID, packet.NodeID(dst)); !slices.Equal(got, want) {
								t.Fatalf("%s: AS path %v -> %d is %v, the single build's is %v", name, ar, dst, got, want)
							}
						}
					}
				}
			}
			if hosts != fullHosts {
				t.Fatalf("%s: shards=%d: the shards own %d hosts between them, the topology has %d", tc.name, shards, hosts, fullHosts)
			}
		}
	}
}

// TestReplicaOverheadBounded reads the claim's accounting off the
// runtime plane: over all shards of a sharded run each host and each
// link is owned exactly once. Replicas of the graph would read more.
func TestReplicaOverheadBounded(t *testing.T) {
	pop, srcASes := 256, 8
	if !testing.Short() {
		pop, srcASes = 10_240, 32
	}
	build := func(shards int) *Instance {
		in, err := poolCell(pop, srcASes, Second, shards).Build()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(in.Stop)
		return in
	}
	single := build(0)
	h, l := single.Net.Materialised()
	hosts, links := uint64(h), uint64(l)
	if want := uint64(pop + 1 + 9); hosts != want { // senders, victim, colluders
		t.Fatalf("single engine: %d hosts materialised, want %d", hosts, want)
	}
	if _, ok := single.RuntimeCounters()["shard_hosts_owned_total"]; ok {
		t.Error("the single engine reports shard accounting: every job snapshot would carry the rows")
	}
	for _, shards := range []int{2, 4, 8} {
		rt := build(shards).RuntimeCounters()
		h, l := rt["shard_hosts_owned_total"], rt["shard_links_owned_total"]
		t.Logf("shards=%d: %d hosts, %d links owned over all shards (topology: %d hosts, %d links)", shards, h, l, hosts, links)
		if h != hosts {
			t.Errorf("shards=%d: %d hosts owned over all shards, the topology has %d", shards, h, hosts)
		}
		if l != links {
			t.Errorf("shards=%d: %d links owned over all shards, the topology has %d", shards, l, links)
		}
	}
}
