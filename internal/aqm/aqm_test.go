package aqm

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

func pkt(size int32) *packet.Packet { return &packet.Packet{Size: size} }

func TestDropTailBasics(t *testing.T) {
	q := NewDropTail(3000)
	if !q.Enqueue(pkt(1500), 0) || !q.Enqueue(pkt(1500), 0) {
		t.Fatal("enqueue under limit failed")
	}
	if q.Enqueue(pkt(1), 0) {
		t.Fatal("enqueue over limit succeeded")
	}
	if q.Len() != 2 || q.Bytes() != 3000 {
		t.Fatalf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
	p, _ := q.Dequeue(0)
	if p == nil || q.Bytes() != 1500 {
		t.Fatal("dequeue broken")
	}
	s := q.Stats()
	if s.Enqueued != 2 || s.Dropped != 1 || s.Dequeued != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(1 << 20)
	for i := 0; i < 10; i++ {
		p := pkt(100)
		p.Flow = packet.FlowID(i)
		q.Enqueue(p, 0)
	}
	for i := 0; i < 10; i++ {
		p, _ := q.Dequeue(0)
		if p.Flow != packet.FlowID(i) {
			t.Fatalf("out of order: got %d want %d", p.Flow, i)
		}
	}
}

func TestFIFOUnbounded(t *testing.T) {
	var q queue.FIFO
	for i := 0; i < 1000; i++ {
		if !q.Enqueue(pkt(1500), 0) {
			t.Fatal("FIFO dropped")
		}
	}
	if q.Len() != 1000 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestREDBelowMinThreshNeverDrops(t *testing.T) {
	cfg := DefaultRED(1_000_000) // 25000B limit, 12500 min
	rng := rand.New(rand.NewPCG(1, 1))
	q := NewRED(cfg, rng)
	// Keep instantaneous queue well below min threshold.
	for i := 0; i < 100; i++ {
		if !q.Enqueue(pkt(1000), sim.Time(i)*sim.Millisecond) {
			t.Fatal("drop below min thresh")
		}
		q.Dequeue(sim.Time(i)*sim.Millisecond + sim.Microsecond)
	}
	if q.Congested() {
		t.Fatal("congested with near-empty queue")
	}
}

func TestREDDropsUnderSustainedOverload(t *testing.T) {
	cfg := DefaultRED(1_000_000)
	rng := rand.New(rand.NewPCG(2, 2))
	q := NewRED(cfg, rng)
	drops := 0
	for i := 0; i < 200; i++ {
		if !q.Enqueue(pkt(1500), sim.Time(i)*sim.Microsecond) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no drops despite overload")
	}
	if !q.Congested() {
		t.Fatal("not congested despite overload")
	}
	if _, seen := q.LastCongested(); !seen {
		t.Fatal("congestion instant not recorded")
	}
	if q.Bytes() > cfg.LimitBytes {
		t.Fatalf("buffer exceeded limit: %d > %d", q.Bytes(), cfg.LimitBytes)
	}
}

func TestREDAverageDecaysWhenIdle(t *testing.T) {
	cfg := DefaultRED(1_000_000)
	rng := rand.New(rand.NewPCG(3, 3))
	q := NewRED(cfg, rng)
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		q.Enqueue(pkt(1500), now)
		now += 10 * sim.Microsecond
	}
	for {
		p, _ := q.Dequeue(now)
		if p == nil {
			break
		}
	}
	high := q.AvgBytes()
	// A long idle period followed by one enqueue must shrink the average.
	now += 10 * sim.Second
	q.Enqueue(pkt(100), now)
	if q.AvgBytes() >= high {
		t.Fatalf("avg did not decay: %f -> %f", high, q.AvgBytes())
	}
	if q.Congested() {
		t.Fatal("still congested after long idle")
	}
}

func TestLossDetector(t *testing.T) {
	d := NewLossDetector()
	var s queue.Stats
	// No loss: never attacked.
	for i := 0; i < 50; i++ {
		s.Dequeued += 100
		if d.Sample(s) {
			t.Fatal("attack detected without loss")
		}
	}
	// Sustained 20% loss crosses the 2% EWMA threshold quickly.
	attacked := false
	for i := 0; i < 20; i++ {
		s.Dequeued += 80
		s.Dropped += 20
		if d.Sample(s) {
			attacked = true
			break
		}
	}
	if !attacked {
		t.Fatalf("attack not detected, rate=%f", d.Rate())
	}
	// Loss stops: the EWMA eventually falls back under the threshold.
	for i := 0; i < 200; i++ {
		s.Dequeued += 100
		d.Sample(s)
	}
	if d.Sample(s) {
		t.Fatalf("attack still flagged after recovery, rate=%f", d.Rate())
	}
}

func TestLossDetectorMildAttackBelowThreshold(t *testing.T) {
	// §5.2.1: keeping loss below p_th evades detection, but then the
	// damage is bounded. 1% loss must not trigger.
	d := NewLossDetector()
	var s queue.Stats
	for i := 0; i < 500; i++ {
		s.Dequeued += 99
		s.Dropped += 1
		if d.Sample(s) {
			t.Fatal("mild attack detected (should stay under threshold)")
		}
	}
}

func TestLossFraction(t *testing.T) {
	prev := queue.Stats{Dequeued: 100, Dropped: 10}
	cur := queue.Stats{Dequeued: 180, Dropped: 30}
	got := cur.LossFraction(prev)
	if got != 0.2 {
		t.Fatalf("LossFraction = %f, want 0.2", got)
	}
	if (queue.Stats{}).LossFraction(queue.Stats{}) != 0 {
		t.Fatal("empty window should be lossless")
	}
}

// dropLog records every packet a queue hands its Dropper, with the reason.
type dropLog map[*packet.Packet][]string

func (d dropLog) Drop(p *packet.Packet, _ sim.Time, reason string) { d[p] = append(d[p], reason) }

// Property: RED conserves packets. A refused packet goes to the Dropper
// exactly once, in its own Enqueue call and with a RED reason; every
// accepted packet is dequeued or still queued; Stats agree with the
// record; and the backlog never passes the hard limit. Over all runs RED
// must have dropped, or the property held of nothing.
func TestREDConservationProperty(t *testing.T) {
	cfg := DefaultRED(500_000)
	var droppedAll int
	prop := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		q := NewRED(cfg, rng)
		drops := dropLog{}
		q.SetDropper(drops)
		now := sim.Time(0)
		in, out := 0, 0
		for i := 0; i < int(n); i++ {
			now += sim.Millisecond
			if rng.IntN(3) != 0 {
				p := pkt(1500)
				if q.Enqueue(p, now) {
					in++
					if len(drops[p]) != 0 {
						return false
					}
				} else if r := drops[p]; len(r) != 1 || r[0] != "red-limit" && r[0] != "red-early" {
					return false
				}
			} else if p, _ := q.Dequeue(now); p != nil {
				if len(drops[p]) != 0 {
					return false
				}
				out++
			}
			if q.Bytes() > cfg.LimitBytes {
				return false
			}
		}
		droppedAll += len(drops)
		s := q.Stats()
		return in == out+q.Len() && s.Enqueued == uint64(in) && s.Dequeued == uint64(out) &&
			s.Dropped == uint64(len(drops)) && s.DroppedBytes == uint64(1500*len(drops))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if droppedAll == 0 {
		t.Fatal("RED dropped nothing over all runs")
	}
}
