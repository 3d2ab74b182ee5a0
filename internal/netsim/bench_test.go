package netsim_test

import (
	"testing"
	"unsafe"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/slab"
)

// BenchmarkSteadyStateForwarding measures the zero-allocation claim for
// the forwarding hot path: a packet drawn from the pool, sent through a
// host uplink and a two-hop router path, delivered to a sink and
// recycled. After pool and free-list warm-up every op must run
// allocation-free (pooled packets, owned link transmit events, pooled
// propagation events, ring-buffered FIFO queues).
func BenchmarkSteadyStateForwarding(b *testing.B) {
	eng := sim.New(1)
	n := netsim.New(eng)
	h1 := n.NewHost("h1", 1)
	r1 := n.NewNode("r1", 1)
	r2 := n.NewNode("r2", 2)
	h2 := n.NewHost("h2", 2)
	n.Connect(h1, r1, 1_000_000_000, sim.Millisecond)
	n.Connect(r1, r2, 1_000_000_000, sim.Millisecond)
	n.Connect(r2, h2, 1_000_000_000, sim.Millisecond)
	n.ComputeRoutes()

	delivered := 0
	h2.Host.OnUnknownFlow = func(p *packet.Packet) netsim.Agent {
		return agentFunc(func(*packet.Packet) { delivered++ })
	}

	send := func() {
		p := h1.Host.NewPacket()
		p.Dst = h2.ID
		p.Flow = 1
		p.Kind = packet.KindRegular
		p.Proto = packet.ProtoUDP
		p.Size = packet.SizeData
		h1.Host.Send(p)
		eng.Run()
	}
	// Warm the pool, the event free list and the queue rings.
	for i := 0; i < 100; i++ {
		send()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no packets delivered")
	}
}

type agentFunc func(*packet.Packet)

func (f agentFunc) Receive(p *packet.Packet) { f(p) }

// TestSteadyStateForwardingZeroAlloc asserts the PR's headline invariant
// in the regular test suite (benchmarks only report allocation counts;
// they never fail on them): once the pool, the event free list and the
// queue rings are warm, forwarding a packet end to end performs zero
// heap allocations.
func TestSteadyStateForwardingZeroAlloc(t *testing.T) {
	eng := sim.New(1)
	n := netsim.New(eng)
	h1 := n.NewHost("h1", 1)
	r1 := n.NewNode("r1", 1)
	h2 := n.NewHost("h2", 2)
	n.Connect(h1, r1, 1_000_000_000, sim.Millisecond)
	n.Connect(r1, h2, 1_000_000_000, sim.Millisecond)
	n.ComputeRoutes()
	h2.Host.OnUnknownFlow = func(p *packet.Packet) netsim.Agent {
		return agentFunc(func(*packet.Packet) {})
	}
	send := func() {
		p := h1.Host.NewPacket()
		p.Dst = h2.ID
		p.Flow = 1
		p.Kind = packet.KindRegular
		p.Proto = packet.ProtoUDP
		p.Size = packet.SizeData
		h1.Host.Send(p)
		eng.Run()
	}
	for i := 0; i < 100; i++ {
		send() // warm up pools and rings
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("steady-state forwarding allocates %.2f times per packet, want 0", avg)
	}
}

// TestNodeLayoutBudget pins the per-node state at its 96 bytes: what a
// network knows about a host it does not hold goes in its flat per-node
// arrays, not in fields every node of every run would carry. A network
// carves its nodes from 8 KB slab chunks, 85 nodes in 8160 bytes.
func TestNodeLayoutBudget(t *testing.T) {
	if n := unsafe.Sizeof(netsim.Node{}); n > 96 {
		t.Fatalf("sizeof(Node) = %d, budget 96", n)
	}
	var s slab.Slab[netsim.Node]
	if n, b := s.ChunkLen(), s.ChunkLen()*int(unsafe.Sizeof(netsim.Node{})); n != 85 || b != 8160 {
		t.Errorf("a node slab chunk holds %d nodes in %d bytes, want 85 in 8160", n, b)
	}
}
