package netfence

import (
	"testing"

	"netfence/internal/packet"
)

// poolCell is the ledger's large-passport-shards cell at a chosen
// population: the random-AS graph with Passport on, where nearly all
// traffic crosses cut links one way, toward the bottleneck's shard.
func poolCell(pop, srcASes int, dur Time, shards int) Scenario {
	cfg := DefaultConfig()
	cfg.Passport = true
	return Scenario{
		Name: "pool-bounds", Seed: 1,
		Topology: RandomASSpec{
			Senders: pop, BottleneckBps: int64(pop) * 100_000,
			SrcASes: srcASes, ColluderASes: 9, GraphSeed: 1,
		},
		Defense: DefenseSpec{Name: "netfence", Config: cfg},
		Workloads: []Workload{
			LongTCP{Senders: Range(0, pop/4)},
			AttackSpec{Senders: Range(pop/4, pop), RateBps: 200_000, ToColluders: true},
		},
		Duration: dur, Warmup: dur / 2,
		Shards: shards,
	}
}

// poolCounts runs sc and returns each shard's pool counters: packets
// it had to allocate, and packets idle at the end — on its free list or
// come home through a cut link and not yet adopted.
func poolCounts(t *testing.T, sc Scenario) (fresh, idle []uint64) {
	t.Helper()
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	in.Run()
	for _, n := range in.env.sh.nets {
		fresh = append(fresh, n.Pool.News)
		idle = append(idle, uint64(n.Pool.Len())+n.HandoffStats().Home)
	}
	return fresh, idle
}

// TestShardPoolsBounded holds the packet lifecycle rule under sharding:
// a struct lives where its packet is and empties go home, so splitting a
// run over shards must neither multiply the packets allocated nor park
// them on one shard's free list, and what a pool idles must track the
// traffic in flight, not the simulated time elapsed.
func TestShardPoolsBounded(t *testing.T) {
	pop, srcASes, dur := 256, 8, 2*Second
	if !testing.Short() {
		pop, srcASes = 10_240, 32
	}
	singleFresh, _ := poolCounts(t, poolCell(pop, srcASes, dur, 0))
	single := singleFresh[0]
	for _, shards := range []int{2, 4} {
		fresh, idle := poolCounts(t, poolCell(pop, srcASes, dur, shards))
		_, idle2 := poolCounts(t, poolCell(pop, srcASes, 2*dur, shards))
		t.Logf("shards=%d fresh=%v idle=%v idle@2x=%v (single engine fresh=%d)", shards, fresh, idle, idle2, single)
		var sum uint64
		for _, n := range fresh {
			sum += n
		}
		if limit := single + single*3/10; sum > limit {
			t.Errorf("shards=%d: %d packets allocated over all pools, more than 1.3x the single engine's %d", shards, sum, single)
		}
		for i := range idle {
			if idle[i] > single {
				t.Errorf("shards=%d: shard %d idles %d packets, more than the single engine ever allocated (%d)", shards, i, idle[i], single)
			}
			// A free list well under the single engine's working set
			// moves with the traffic's phase at the instant the run
			// ends; its ratio says nothing about growth.
			if idle2[i] >= 2*idle[i] && idle2[i] > single/2 {
				t.Errorf("shards=%d: shard %d idle packets grew %d -> %d when the run doubled: the pool grows with simulated time", shards, i, idle[i], idle2[i])
			}
		}
	}
}

// TestExtStaysNilOnCorePath: the core design never reads the optional
// headers, so default NetFence and FQ runs must not allocate an Ext on
// any packet. A recycled packet keeps the Ext it ever grew, so draining
// the pool after the run shows every allocation there was.
func TestExtStaysNilOnCorePath(t *testing.T) {
	for _, def := range []string{"netfence", "fq"} {
		sc := Scenario{
			Name: "ext-" + def, Seed: 3,
			Topology: DumbbellSpec{Senders: 8, BottleneckBps: 1_600_000, ColluderASes: 2},
			Defense:  Defense(def),
			Workloads: []Workload{
				LongTCP{Senders: Range(0, 2)},
				FileTransfers{Senders: Range(2, 3)},
				UDPFlood{Senders: Range(3, 5)},
				ColluderPairs{Senders: Range(5, 8), RateBps: 1_000_000},
			},
			Duration: 10 * Second, Warmup: 4 * Second,
		}
		in, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		in.Run()
		pool := &in.Net.Pool
		if pool.Len() == 0 {
			t.Fatalf("%s: the run recycled no packet", def)
		}
		var pkts []*packet.Packet
		for pool.Len() > 0 {
			pkts = append(pkts, pool.Get())
		}
		for _, p := range pkts {
			if p.Ext != nil {
				t.Fatalf("%s: a pooled packet grew an Ext on the core path", def)
			}
		}
	}
}

// TestPoolCountersOnRuntimePlane: the pool counters show on the runtime
// plane — where a scrape would have caught a pool growing without bound
// — and never in Result (TestResultCountersPlane holds the other half).
func TestPoolCountersOnRuntimePlane(t *testing.T) {
	in, err := poolCell(256, 8, Second, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	res := in.Run()
	rt := in.RuntimeCounters()
	var fresh, idleMax uint64
	for _, n := range in.env.sh.nets {
		fresh += n.Pool.News
		idleMax = max(idleMax, uint64(n.Pool.Len())+n.HandoffStats().Home)
	}
	if rt["packet_pool_fresh_total"] != fresh || fresh == 0 {
		t.Errorf("packet_pool_fresh_total = %d, pools allocated %d", rt["packet_pool_fresh_total"], fresh)
	}
	if rt["packet_pool_idle_max"] != idleMax || idleMax == 0 {
		t.Errorf("packet_pool_idle_max = %d, fullest pool idles %d", rt["packet_pool_idle_max"], idleMax)
	}
	for _, k := range []string{"packet_pool_fresh_total", "packet_pool_idle_max"} {
		if _, ok := res.Counters[k]; ok {
			t.Errorf("runtime-plane %s leaked into Result.Counters", k)
		}
	}
}
