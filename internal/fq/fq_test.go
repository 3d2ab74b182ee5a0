package fq

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netfence/internal/packet"
	"netfence/internal/sim"
)

func pktFrom(src packet.NodeID, as packet.ASID, size int32) *packet.Packet {
	return &packet.Packet{Src: src, SrcAS: as, Size: size}
}

// drain dequeues n packets and tallies bytes per sender.
func drainDRR(q *DRR, n int) map[packet.NodeID]int {
	got := map[packet.NodeID]int{}
	for i := 0; i < n; i++ {
		p, _ := q.Dequeue(0)
		if p == nil {
			break
		}
		got[p.Src] += int(p.Size)
	}
	return got
}

func TestDRRFairAcrossBackloggedFlows(t *testing.T) {
	q := NewDRR(BySender, 1500, 1<<20)
	// Flow 1 offers 3x the traffic of flow 2; both stay backlogged.
	for i := 0; i < 300; i++ {
		q.Enqueue(pktFrom(1, 0, 1000), 0)
	}
	for i := 0; i < 100; i++ {
		q.Enqueue(pktFrom(2, 0, 1000), 0)
	}
	got := drainDRR(q, 160)
	// While both are backlogged, service should be ~equal.
	if got[1] < 70_000 || got[1] > 90_000 || got[2] < 70_000 || got[2] > 90_000 {
		t.Fatalf("unfair service: %v", got)
	}
}

func TestDRRFairWithMixedPacketSizes(t *testing.T) {
	q := NewDRR(BySender, 1500, 1<<20)
	for i := 0; i < 400; i++ {
		q.Enqueue(pktFrom(1, 0, 1500), 0) // big packets
	}
	for i := 0; i < 4000; i++ {
		q.Enqueue(pktFrom(2, 0, 100), 0) // small packets
	}
	got := map[packet.NodeID]int{}
	for i := 0; i < 1000; i++ {
		p, _ := q.Dequeue(0)
		got[p.Src] += int(p.Size)
	}
	ratio := float64(got[1]) / float64(got[2])
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("byte-level unfairness with mixed sizes: %v (ratio %f)", got, ratio)
	}
}

func TestDRRWorkConserving(t *testing.T) {
	q := NewDRR(BySender, 1500, 1<<20)
	for i := 0; i < 10; i++ {
		q.Enqueue(pktFrom(1, 0, 500), 0)
	}
	for i := 0; i < 10; i++ {
		if p, _ := q.Dequeue(0); p == nil {
			t.Fatal("queue idle while backlogged")
		}
	}
	if p, _ := q.Dequeue(0); p != nil {
		t.Fatal("dequeue from empty returned a packet")
	}
}

func TestDRROverflowDropsFromLongestFlow(t *testing.T) {
	q := NewDRR(BySender, 1500, 10_000)
	// Flow 1 (the flood) fills the buffer.
	for i := 0; i < 20; i++ {
		q.Enqueue(pktFrom(1, 0, 1000), 0)
	}
	// Flow 2's packet must still get in, evicting from flow 1.
	if !q.Enqueue(pktFrom(2, 0, 1000), 0) {
		t.Fatal("well-behaved flow starved by flood at enqueue")
	}
	if q.Bytes() > 10_000 {
		t.Fatalf("buffer over limit: %d", q.Bytes())
	}
	// Flow 2 gets served within the first round.
	got := drainDRR(q, 2)
	if got[2] == 0 {
		t.Fatalf("flow 2 not served promptly: %v", got)
	}
}

func TestDRRFlowCount(t *testing.T) {
	q := NewDRR(BySender, 1500, 1<<20)
	for s := packet.NodeID(0); s < 50; s++ {
		q.Enqueue(pktFrom(s, 0, 100), 0)
	}
	if q.FlowCount() != 50 {
		t.Fatalf("FlowCount = %d", q.FlowCount())
	}
}

// Property: with random arrivals from k flows, service never lets one
// backlogged flow lead another by more than quantum + max packet bytes
// within a drain (DRR's fairness bound).
func TestDRRFairnessBoundProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		q := NewDRR(BySender, 1500, 1<<24)
		// Two heavily backlogged flows with random packet sizes.
		for i := 0; i < 500; i++ {
			sz := int32(64 + rng.IntN(1436))
			q.Enqueue(pktFrom(1, 0, sz), 0)
			sz = int32(64 + rng.IntN(1436))
			q.Enqueue(pktFrom(2, 0, sz), 0)
		}
		served := map[packet.NodeID]int{}
		for i := 0; i < 400; i++ {
			p, _ := q.Dequeue(0)
			served[p.Src] += int(p.Size)
			d := served[1] - served[2]
			if d < 0 {
				d = -d
			}
			// Lag bound: one quantum plus one max packet per flow.
			if d > 2*(1500+1500) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHDRRPerASThenPerSender(t *testing.T) {
	q := NewHDRR(BySourceAS, BySender, 1500, 1<<20)
	// AS 1 has 10 senders; AS 2 has 1 sender. Per-AS fairness means AS 2's
	// single sender gets as much as all of AS 1 combined.
	for s := packet.NodeID(0); s < 10; s++ {
		for i := 0; i < 100; i++ {
			q.Enqueue(pktFrom(s, 1, 1000), 0)
		}
	}
	for i := 0; i < 400; i++ {
		q.Enqueue(pktFrom(100, 2, 1000), 0)
	}
	perAS := map[packet.ASID]int{}
	for i := 0; i < 500; i++ {
		p, _ := q.Dequeue(0)
		if p == nil {
			break
		}
		perAS[p.SrcAS] += int(p.Size)
	}
	ratio := float64(perAS[1]) / float64(perAS[2])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("per-AS unfairness: %v (ratio %f)", perAS, ratio)
	}
}

func TestHDRRInnerFairness(t *testing.T) {
	q := NewHDRR(BySourceAS, BySender, 1500, 1<<20)
	// One AS, two senders, one floods.
	for i := 0; i < 500; i++ {
		q.Enqueue(pktFrom(1, 1, 1000), 0)
	}
	for i := 0; i < 100; i++ {
		q.Enqueue(pktFrom(2, 1, 1000), 0)
	}
	served := map[packet.NodeID]int{}
	for i := 0; i < 180; i++ {
		p, _ := q.Dequeue(0)
		served[p.Src] += int(p.Size)
	}
	ratio := float64(served[1]) / float64(served[2])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("inner unfairness: %v", served)
	}
}

func TestHDRROverflowProtectsSmallClass(t *testing.T) {
	q := NewHDRR(BySourceAS, BySender, 1500, 20_000)
	for i := 0; i < 40; i++ {
		q.Enqueue(pktFrom(1, 1, 1000), 0) // AS 1 floods
	}
	if !q.Enqueue(pktFrom(2, 2, 1000), 0) {
		t.Fatal("small AS starved at enqueue")
	}
	if q.Bytes() > 20_000 {
		t.Fatalf("over limit: %d", q.Bytes())
	}
	if q.ClassCount() != 2 {
		t.Fatalf("classes = %d", q.ClassCount())
	}
}

// dropLog records every packet a queue hands its Dropper, with the reason.
type dropLog map[*packet.Packet][]string

func (d dropLog) Drop(p *packet.Packet, _ sim.Time, reason string) { d[p] = append(d[p], reason) }

// Property: HDRR conserves packets on a buffer small enough to refuse and
// evict. A refused packet is dropped as "fq-full" in its own Enqueue call,
// an evicted one as "fq-evict"; after draining, every offered packet was
// dequeued or dropped exactly once, Stats agree, and nothing is left.
// Over all runs HDRR must have evicted, or the property held of nothing.
func TestHDRRConservation(t *testing.T) {
	var evictedAll int
	prop := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		q := NewHDRR(BySourceAS, BySender, 1500, 50_000)
		drops := dropLog{}
		q.SetDropper(drops)
		var offered []*packet.Packet
		accepted := 0
		for i := 0; i < int(n)*4; i++ {
			p := pktFrom(packet.NodeID(rng.IntN(5)), packet.ASID(rng.IntN(3)), int32(64+rng.IntN(1400)))
			offered = append(offered, p)
			if q.Enqueue(p, sim.Time(i)) {
				accepted++
				if len(drops[p]) != 0 {
					return false
				}
			} else if r := drops[p]; len(r) != 1 || r[0] != "fq-full" {
				return false
			}
			if q.Bytes() > 50_000 {
				return false
			}
		}
		for _, r := range drops {
			if len(r) == 1 && r[0] == "fq-evict" {
				evictedAll++
			}
		}
		dequeued := map[*packet.Packet]int{}
		for {
			p, _ := q.Dequeue(0)
			if p == nil {
				break
			}
			dequeued[p]++
		}
		for _, p := range offered {
			if dequeued[p]+len(drops[p]) != 1 {
				return false
			}
		}
		s := q.Stats()
		return q.Len() == 0 && q.Bytes() == 0 && s.Enqueued == uint64(accepted) &&
			s.Dequeued == uint64(len(dequeued)) && s.Dropped == uint64(len(drops))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if evictedAll == 0 {
		t.Fatal("HDRR evicted nothing over all runs")
	}
}
