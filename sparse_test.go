package netfence

import (
	"fmt"
	"slices"
	"testing"

	"netfence/internal/defense"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
)

// sparseTopologies are the wirings the sparse-replica tests build full,
// as a skeleton and as every shard's replica: the four in-tree
// topologies, the random one under three graph seeds (3 and 4 are the
// wirings whose sharded runs once diverged).
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

func mustBuildTopo(t *testing.T, spec TopologySpec, owns func(packet.ASID) bool) *builtTopo {
	t.Helper()
	bt, err := spec.buildTopo(sim.New(1), owns)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// TestSparseReplicaRoutesMatchFull shows, instead of assuming, that a
// shard's sparse replica routes like the full network: the partition of
// the host-less skeleton is the full graph's, every replica reserves
// every node ID and link index, holds exactly the nodes of its shard
// plus every router, and from each node of its shard picks the full
// build's link — by index — toward every destination, hosts it does not
// hold included; and the AS path Passport stamps from each of its access
// routers is the full build's, element for element. On every replica
// but the owner's, a source access router holds one built link, its
// uplink: it must stay a core node there or nothing behind it routes.
func TestSparseReplicaRoutesMatchFull(t *testing.T) {
	for _, tc := range sparseTopologies {
		full := mustBuildTopo(t, tc.spec, nil)
		skel := mustBuildTopo(t, tc.spec, func(packet.ASID) bool { return false })
		if h, _ := skel.net.Materialised(); h != 0 {
			t.Fatalf("%s: the skeleton holds %d hosts", tc.name, h)
		}
		// A fleet attachment point must pull the split the same way
		// whether or not the graph holds the host that will carry it.
		full.graph.WeighSender(0, 3, 1000)
		skel.graph.WeighSender(0, 3, 1000)
		for _, shards := range []int{2, 4, 8} {
			want, err := full.graph.Partition(shards)
			if err != nil {
				t.Fatalf("%s: shards=%d: %v", tc.name, shards, err)
			}
			part, err := skel.graph.Partition(shards)
			if err != nil {
				t.Fatalf("%s: shards=%d: skeleton: %v", tc.name, shards, err)
			}
			cuts := func(p *topo.Partition) (idx []int) {
				for _, l := range p.CutLinks {
					idx = append(idx, l.Index)
				}
				return idx
			}
			if !slices.Equal(part.ShardOfNode, want.ShardOfNode) || !slices.Equal(cuts(part), cuts(want)) || part.Lookahead != want.Lookahead {
				t.Fatalf("%s: shards=%d: the skeleton partitions differently from the full graph", tc.name, shards)
			}
			hosts := 0
			for r := 0; r < shards; r++ {
				rep := mustBuildTopo(t, tc.spec, func(as packet.ASID) bool { return part.ShardOfAS[as] == r })
				name := fmt.Sprintf("%s: shards=%d: replica %d", tc.name, shards, r)
				if len(rep.net.Nodes) != len(full.net.Nodes) || len(rep.net.Links) != len(full.net.Links) {
					t.Fatalf("%s has %d nodes and %d links, the full build %d and %d",
						name, len(rep.net.Nodes), len(rep.net.Links), len(full.net.Nodes), len(full.net.Links))
				}
				h, _ := rep.net.Materialised()
				hosts += h
				for id, fn := range full.net.Nodes {
					rn := rep.net.Nodes[id]
					mine := int(part.ShardOfNode[id]) == r
					if held := rn != nil; held != (mine || !fn.IsHost) {
						t.Fatalf("%s: node %v (shard %d): held = %v", name, fn, part.ShardOfNode[id], held)
					}
					if !mine {
						continue
					}
					for dst := range full.net.Nodes {
						got, want := -1, -1
						if l := rep.net.Route(rn, packet.NodeID(dst)); l != nil {
							got = l.Index
						}
						if l := full.net.Route(fn, packet.NodeID(dst)); l != nil {
							want = l.Index
						}
						if got != want {
							t.Fatalf("%s: next hop %v -> %d is link %d, the full build's is %d", name, fn, dst, got, want)
						}
					}
				}
				for _, grp := range rep.graph.Groups() {
					for _, ar := range grp.Access {
						if int(part.ShardOfNode[ar.ID]) != r {
							continue
						}
						for dst := range full.net.Nodes {
							got := rep.net.PathASes(nil, ar.ID, packet.NodeID(dst))
							if want := full.net.PathASes(nil, ar.ID, packet.NodeID(dst)); !slices.Equal(got, want) {
								t.Fatalf("%s: AS path %v -> %d is %v, the full build's is %v", name, ar, dst, got, want)
							}
						}
					}
				}
			}
			if fullHosts, _ := full.net.Materialised(); hosts != fullHosts {
				t.Fatalf("%s: shards=%d: the replicas hold %d hosts between them, the topology has %d", tc.name, shards, hosts, fullHosts)
			}
		}
	}
}

// TestReplicaStreamsAligned pins the fact sparse replicas rest on: a
// host draws no setup randomness. After Build, every replica's engine
// stream must stand where a dense build of the same topology and
// defense leaves it — so a future per-host draw fails here, loudly,
// instead of silently desynchronising the bottleneck's RED from the
// single engine's.
func TestReplicaStreamsAligned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Passport = true
	for _, tc := range sparseTopologies {
		sc := Scenario{
			Name: "streams", Seed: 5,
			Topology:   tc.spec,
			Defense:    DefenseSpec{Name: "netfence", Config: cfg},
			Deployment: DeployFraction(0.5),
			Duration:   Second,
		}
		eng := sim.New(sc.Seed)
		eng.EnableKeyStreams(sc.Seed)
		dense, err := sc.Topology.buildTopo(eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := defense.Build(sc.Defense.Name, dense.net, defense.BuildOptions{Config: sc.Defense.Config})
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := sc.Deployment.plan(dense.graph.SourceASes())
		if err != nil {
			t.Fatal(err)
		}
		dense.graph.Deploy(sys, defense.Policy{}, plan)
		want := eng.Rand.Uint64()

		for _, shards := range []int{2, 4} {
			sc.Shards = shards
			in, err := sc.Build()
			if err != nil {
				t.Fatalf("%s: shards=%d: %v", tc.name, shards, err)
			}
			for i, e := range in.Engines {
				if got := e.Rand.Uint64(); got != want {
					t.Errorf("%s: shards=%d: replica %d's stream stands at %#x after Build, a dense build's at %#x",
						tc.name, shards, i, got, want)
				}
			}
			in.Stop()
		}
	}
}

// TestReplicaOverheadBounded reads the claim's accounting off the
// runtime plane: over all replicas of a sharded run each host is
// materialised once, and the links are the topology's plus at most one
// more copy of the router links per shard. Full replicas read shards ×
// hosts here.
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
	if _, ok := single.RuntimeCounters()["replica_hosts_materialised_total"]; ok {
		t.Error("the single engine reports replica accounting: every job snapshot would carry the rows")
	}
	routerLinks := links - 2*hosts
	for _, shards := range []int{2, 4, 8} {
		rt := build(shards).RuntimeCounters()
		h, l := rt["replica_hosts_materialised_total"], rt["replica_links_materialised_total"]
		t.Logf("shards=%d: %d hosts, %d links materialised over all replicas (topology: %d hosts, %d links, %d of them between routers)",
			shards, h, l, hosts, links, routerLinks)
		if h != hosts {
			t.Errorf("shards=%d: %d hosts materialised over all replicas, the topology has %d", shards, h, hosts)
		}
		if limit := links + uint64(shards)*routerLinks; l > limit {
			t.Errorf("shards=%d: %d links materialised over all replicas, more than the topology's %d plus %d router links per shard", shards, l, links, routerLinks)
		}
	}
}
