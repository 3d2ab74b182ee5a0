package netfence

import (
	"fmt"
	"testing"
	"unsafe"

	"netfence/internal/netsim"
	"netfence/internal/transport"
)

// TestLinkCensus holds the idle-link cut-through to its point: a link
// pays for a queue object only once a packet has found its transmitter
// busy, and a packet that finds it idle on a link without an installed
// discipline is not queued at all. On the collusion cell (Fig. 9, the
// -short population over the ledger's 80 s; the start-up seconds alone
// read 0.87) nine hops in ten are such hops — the rest are the
// bottleneck's, whose queue is installed; on the random-AS cell — the
// large-flood workload at a tenth of its size — most links are host
// access links that never contend, so most links never allocate a queue.
func TestLinkCensus(t *testing.T) {
	const n = 1024
	fig9 := shortLedgerCells()[1]
	fig9.Duration, fig9.Warmup = 80*Second, 40*Second
	cells := []struct {
		sc                   Scenario
		queueless, cutShare  float64
		minLinks, minPackets int
	}{
		{sc: fig9, queueless: 0.8, cutShare: 0.9, minLinks: 80, minPackets: 100_000},
		{sc: Scenario{
			Name: "random-as-1024", Seed: 1,
			Topology: RandomASSpec{Senders: n, BottleneckBps: n * 100_000, SrcASes: 32, ColluderASes: 9, GraphSeed: 1},
			Defense:  Defense("netfence"),
			Workloads: []Workload{
				LongTCP{Senders: Range(0, n/4)},
				AttackSpec{Senders: Range(n/4, n), RateBps: 200_000, ToColluders: true},
			},
			Duration: 2 * Second, Warmup: Second,
		}, queueless: 0.8, cutShare: 0.6, minLinks: 2 * n, minPackets: 100_000},
	}
	for _, c := range cells {
		in, err := c.sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		in.Run()
		st := in.Net.LinkStats()
		sends := st.CutThrough + st.Queued
		queueless := float64(st.Queueless) / float64(st.Links)
		cutShare := float64(st.CutThrough) / float64(sends)
		t.Logf("%s: %+v: %.3f of links without a queue, %.3f of sends cut through", c.sc.Name, st, queueless, cutShare)
		if st.Links < c.minLinks || sends < uint64(c.minPackets) {
			t.Errorf("%s: %d links, %d sends: the cell is too small to say anything", c.sc.Name, st.Links, sends)
		}
		if queueless < c.queueless {
			t.Errorf("%s: %d of %d links hold no queue (%.3f), want at least %.2f", c.sc.Name, st.Queueless, st.Links, queueless, c.queueless)
		}
		if cutShare < c.cutShare {
			t.Errorf("%s: %d of %d sends cut through (%.3f), want at least %.2f", c.sc.Name, st.CutThrough, sends, cutShare, c.cutShare)
		}
	}
}

// TestQueueHWMUncongested pins the one counter whose value came from
// default FIFOs. On a dumbbell whose bottleneck never backs up the
// installed queues peak at four packets, and queue_hwm_bytes is the
// burst a TCP sender's window opens onto its own uplink: 175,500 B
// before the cut-through, when that uplink's FIFO saw every packet, and
// after it, when the FIFO exists only from the first contended packet on
// and lone packets are counted by the network. The same at two shards,
// where each replica keeps its own mark and the merge takes the maximum.
func TestQueueHWMUncongested(t *testing.T) {
	for _, shards := range []int{1, 2} {
		sc := Scenario{
			Name: "uncongested", Seed: 3,
			Topology: DumbbellSpec{Senders: 8, BottleneckBps: 1_000_000_000, EdgeBps: 100_000_000},
			Defense:  Defense("netfence"),
			Workloads: []Workload{
				LongTCP{Senders: Range(0, 4)},
				UDPFlood{Senders: Range(4, 8), RateBps: 200_000},
			},
			Duration: 4 * Second, Warmup: Second, Shards: shards,
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Counters["queue_hwm_bytes"]; got != 175_500 {
			t.Errorf("shards=%d: queue_hwm_bytes = %d, want 175500", shards, got)
		}
	}
}

// TestHandoffCensus holds the cut-link handoff to its books on the
// ledger's Passport cell at the -short population. At every control
// point and at the end, what the replicas lent is what they borrowed plus
// what still waits undrained in a mailbox (at most one window's worth:
// the deepest batch any drain saw, on every cut link), the borrowed
// count is the runtime plane's netsim_handoff_packet_total, and no
// replica sent home more than it borrowed. No arrival needed an event of
// its own while FIFOs stood dozens deep: a cut link's pending events are
// the one its mailbox owns, however much it has in flight.
func TestHandoffCensus(t *testing.T) {
	for _, shards := range []int{2, 4} {
		in, err := poolCell(256, 8, 2*Second, shards).Build()
		if err != nil {
			t.Fatal(err)
		}
		cuts := uint64(in.Sharding.CutLinks)
		check := func(when string) (sum netsim.HandoffStats) {
			t.Helper()
			for i, n := range in.env.sh.nets {
				st := n.HandoffStats()
				if st.SentHome > st.Borrowed {
					t.Errorf("shards=%d %s: replica %d sent home %d structs for %d borrowed", shards, when, i, st.SentHome, st.Borrowed)
				}
				sum.Lent += st.Lent
				sum.Borrowed += st.Borrowed
				sum.SentHome += st.SentHome
				sum.Debt += st.Debt
				sum.Keyed += st.Keyed
				sum.FIFOHWM = max(sum.FIFOHWM, st.FIFOHWM)
			}
			rt := in.RuntimeCounters()
			if sum.Borrowed != rt["netsim_handoff_packet_total"] {
				t.Errorf("shards=%d %s: %d borrowed, netsim_handoff_packet_total = %d", shards, when, sum.Borrowed, rt["netsim_handoff_packet_total"])
			}
			if undrained := sum.Lent - sum.Borrowed; sum.Lent < sum.Borrowed || undrained > cuts*rt["netsim_mailbox_depth_hwm"] {
				t.Errorf("shards=%d %s: %d lent, %d borrowed over %d cut links (deepest batch %d)", shards, when, sum.Lent, sum.Borrowed, cuts, rt["netsim_mailbox_depth_hwm"])
			}
			if sum.Keyed != 0 {
				t.Errorf("shards=%d %s: %d arrivals took an event of their own with no delay lowered", shards, when, sum.Keyed)
			}
			return sum
		}
		for at := 250 * Millisecond; at < 2*Second; at += 250 * Millisecond {
			in.Advance(at)
			check(fmt.Sprint("at ", at))
		}
		in.Finish()
		sum := check("at the end")
		t.Logf("shards=%d: %+v", shards, sum)
		if sum.Lent == 0 || sum.FIFOHWM < 2 {
			t.Errorf("shards=%d: %+v: want traffic over the cut and FIFOs more than one deep", shards, sum)
		}
	}
}

// TestGoodputMeterLayoutBudget pins the per-sender goodput meter at 40
// bytes: every sender of a scenario has one. The meter points at the
// byte count it reads, and the timeseries rows live beside the meters in
// each shard's list (shardMeters.row), made only by the probe that fills
// them. A run carves its meters from 8 KB slab chunks, 204 meters in
// 8160 bytes, and its UDP sinks, 341 in 8184.
func TestGoodputMeterLayoutBudget(t *testing.T) {
	if n := unsafe.Sizeof(goodputMeter{}); n > 40 {
		t.Fatalf("sizeof(goodputMeter) = %d, budget 40", n)
	}
	var env scenarioEnv
	if c, b := env.meterSlab.ChunkLen(), env.meterSlab.ChunkLen()*int(unsafe.Sizeof(goodputMeter{})); c != 204 || b != 8160 {
		t.Errorf("a meter slab chunk holds %d meters in %d bytes, want 204 in 8160", c, b)
	}
	if c, b := env.sinks.ChunkLen(), env.sinks.ChunkLen()*int(unsafe.Sizeof(transport.UDPSink{})); c != 341 || b != 8184 {
		t.Errorf("a sink slab chunk holds %d sinks in %d bytes, want 341 in 8184", c, b)
	}
}
