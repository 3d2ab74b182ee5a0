package netfence

import (
	"testing"

	"netfence/internal/netsim"
	"netfence/internal/packet"
)

// conservationCell is a short dumbbell run past its bottleneck's
// capacity: legitimate TCP, colluding floods and a request flood, so
// every discipline both refuses arrivals and evicts what it holds.
func conservationCell(def string, shards int) Scenario {
	return Scenario{
		Name:     "conservation",
		Seed:     1,
		Topology: DumbbellSpec{Senders: 8, BottleneckBps: 800_000, ColluderASes: 2},
		Defense:  Defense(def),
		Workloads: []Workload{
			LongTCP{Senders: Range(0, 2)},
			ColluderPairs{Senders: Range(2, 6)},
			RequestFlood{Senders: Range(6, 8)},
		},
		Duration: 10 * Second,
		Shards:   shards,
	}
}

// TestPacketConservation holds every link queue of every registered
// defense, at one and two shards, to the one drop path: each packet a
// queue discards — refused on arrival or evicted — is counted once in
// the queue's Stats, once in netsim_drop_total and shown once to
// Network.OnDrop. A discipline that drops a packet past its link's
// Dropper makes the sums disagree.
func TestPacketConservation(t *testing.T) {
	for _, def := range Defenses() {
		for _, shards := range []int{1, 2} {
			in, err := conservationCell(def, shards).Build()
			if err != nil {
				t.Fatalf("%s shards=%d: %v", def, shards, err)
			}
			if len(in.env.sh.nets) != shards {
				t.Fatalf("%s shards=%d: built %d shards", def, shards, len(in.env.sh.nets))
			}
			observed := make([]uint64, shards)
			for i, n := range in.env.sh.nets {
				n.OnDrop = func(*packet.Packet, *netsim.Link) { observed[i]++ }
			}
			in.Run()
			var queued, onDrop uint64
			for _, l := range in.env.sh.nets[0].Links {
				if l.Q != nil {
					queued += l.Q.Stats().Dropped
				}
			}
			for _, n := range observed {
				onDrop += n
			}
			counted := in.Counters()["netsim_drop_total"]
			t.Logf("%s shards=%d: %d drops", def, shards, counted)
			if queued == 0 {
				t.Errorf("%s shards=%d: no queue dropped a packet; the cell does not congest", def, shards)
			}
			if queued != counted || onDrop != counted {
				t.Errorf("%s shards=%d: queues dropped %d, netsim_drop_total %d, Network.OnDrop saw %d", def, shards, queued, counted, onDrop)
			}
		}
	}
}
