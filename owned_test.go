package netfence

import (
	"testing"

	"netfence/internal/core"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
)

// TestControlPlaneOwned: each shard deploys only the control plane it
// owns. On random-as and the parking lot at 2, 4 and 8 shards, with half
// the source ASes legacy until a deploy mutation arms them mid-run, an
// access router is policed on exactly the replica owning its AS (and on
// none while its AS is legacy), and a bottleneck is protected on exactly
// the replica owning its transmitting router.
func TestControlPlaneOwned(t *testing.T) {
	cases := []struct {
		name      string
		spec      TopologySpec
		workloads []Workload
	}{
		{
			name:      "random-as",
			spec:      RandomASSpec{Senders: 20, BottleneckBps: 4_000_000, TransitASes: 4, ExtraLinks: 2, ColluderASes: 3, GraphSeed: 3},
			workloads: []Workload{LongTCP{Senders: Range(0, 5)}, UDPFlood{Senders: Range(5, 12)}},
		},
		{
			name: "parking-lot",
			spec: ParkingLotSpec{SendersPerGroup: 10, L1Bps: 4_000_000, L2Bps: 2_000_000},
			workloads: []Workload{
				LongTCP{Group: 0, Senders: Range(0, 5)},
				UDPFlood{Group: 1, Senders: Range(0, 10)},
				LongTCP{Group: 2, Senders: Range(0, 10)},
			},
		},
	}
	for _, tc := range cases {
		for _, shards := range []int{2, 4, 8} {
			sc := equivScenario(tc.spec, tc.workloads, shards)
			sc.Duration, sc.Warmup = 6*Second, 2*Second
			sc.Deployment = DeployFraction(0.5)
			sc.Timeline = []Mutation{{At: 3 * Second, Deploy: &DeployMutation{Deployment: FullDeployment()}}}
			in, err := sc.Build()
			if err != nil {
				t.Fatalf("%s: shards=%d: %v", tc.name, shards, err)
			}
			sh := in.env.sh
			check := func(when string) (policed int) {
				for _, grp := range in.Graph.Groups() {
					for _, r := range grp.Access {
						owner := sh.shardOf(r.ID)
						for i, sys := range sh.systems {
							got := sys.(*core.System).Access(r) != nil
							if want := i == owner && in.env.plan.Participates(r.AS); got != want {
								t.Fatalf("%s: shards=%d, %s: access router %v (AS %d, shard %d) policed on replica %d: %v",
									tc.name, shards, when, r, r.AS, owner, i, got)
							}
							if got {
								policed++
							}
						}
					}
				}
				for _, l := range in.Graph.Bottlenecks() {
					owner := sh.shardOf(l.From.ID)
					for i, sys := range sh.systems {
						if got := sys.(*core.System).Bottleneck(l) != nil; got != (i == owner) {
							t.Fatalf("%s: shards=%d, %s: bottleneck %s (shard %d) protected on replica %d: %v",
								tc.name, shards, when, l.Label(), owner, i, got)
						}
					}
				}
				return policed
			}
			before := check("at build")
			in.Run()
			if after := check("after the deploy mutation"); after <= before {
				t.Fatalf("%s: shards=%d: the mutation armed nothing (%d policed routers before, %d after)",
					tc.name, shards, before, after)
			}
		}
	}
}

// twoExit is a topology whose two bottlenecks are transmitted from
// different ASes: four source ASes reach core router C1 (AS 100), whose
// link to C2 (AS 200) is bottleneck L1; C2's link to the victim's access
// router (AS 300) is bottleneck L2, and a colluder AS hangs off C2, so
// colluder traffic crosses L1 only. C1 is declared first and C2 after
// the sources, so a two-way split by weight puts the two transmitters on
// different shards.
type twoExit struct{}

func (twoExit) name() string                      { return "two-exit" }
func (twoExit) population() int                   { return 12 }
func (s twoExit) withPopulation(int) TopologySpec { return s }
func (twoExit) groupSizes() []int                 { return []int{12} }

func (twoExit) buildTopo(eng *sim.Engine) (*topo.Graph, error) {
	g := topo.NewGraph(eng)
	c1 := g.Router("C1", 100)
	var access []*Node
	for as := 1; as <= 4; as++ {
		ra := g.AccessRouter(0, "Ra", packet.ASID(as))
		g.Link(ra, c1, 1_000_000_000, 10*Millisecond)
		access = append(access, ra)
	}
	for i, ra := range access {
		for h := 0; h < 3; h++ {
			s := g.Sender(0, "s", packet.ASID(i+1))
			g.Link(s, ra, 1_000_000_000, Millisecond)
		}
	}
	c2 := g.Router("C2", 200)
	g.BottleneckLink(c1, c2, 3_000_000, 10*Millisecond)
	rv := g.AccessRouter(0, "Rv", 300)
	g.BottleneckLink(c2, rv, 2_000_000, 10*Millisecond)
	g.Link(rv, g.Victim(0, "v", 300), 1_000_000_000, Millisecond)
	rc := g.AccessRouter(0, "Rc", 400)
	g.Link(c2, rc, 1_000_000_000, 10*Millisecond)
	g.Link(rc, g.Colluder(0, "c", 400), 1_000_000_000, Millisecond)
	return g.Build(), nil
}

// TestSplitBottleneckTransmitters: two bottlenecks transmitted from
// different ASes are no longer merged into one partition unit. At two
// shards they land on different shards, and at 2, 3 and 4 shards the
// Result is the single engine's, byte for byte.
func TestSplitBottleneckTransmitters(t *testing.T) {
	sc := equivScenario(twoExit{}, []Workload{
		LongTCP{Senders: Range(0, 4)},
		UDPFlood{Senders: Range(4, 8)},
		ColluderPairs{Senders: Range(8, 12), RateBps: 1_000_000},
	}, 1)
	single, _ := runWithInstance(t, sc)
	for _, shards := range []int{2, 3, 4} {
		sc.Shards = shards
		got, in := runWithInstance(t, sc)
		diffJSON(t, "two-exit", single, got, shards)
		if shards != 2 {
			continue
		}
		bns := in.Graph.Bottlenecks()
		if len(bns) != 2 {
			t.Fatalf("two-exit has %d bottlenecks", len(bns))
		}
		if a, b := in.env.sh.shardOf(bns[0].From.ID), in.env.sh.shardOf(bns[1].From.ID); a == b {
			t.Fatalf("at 2 shards both bottleneck transmitters are on shard %d", a)
		}
	}
}
