package main

import (
	"math/rand/v2"

	"netfence/internal/aqm"
	"netfence/internal/core"
	"netfence/internal/fq"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
	"netfence/internal/topo"
)

func probeNetsim(l *ledger, sc scale, seed uint64) {
	// One packet through a host uplink and two router hops, delivered
	// and recycled: the steady-state forwarding path.
	t := newTwoHop(seed)
	forward := func(n int) {
		for i := 0; i < n; i++ {
			t.send()
			t.eng.Run()
		}
	}
	forward(100)
	l.set("netsim.forward_ns", bestNs(l.count(100_000), forward))
	l.set("netsim.forward_allocs", allocsPerOp(l.count(20_000), forward))

	// The large random-AS graph of the large-* workloads: building it,
	// recomputing its routes, partitioning it, and looking routes up
	// from random routers toward random senders.
	cfg := topo.DefaultRandomAS(sc.largeSenders, int64(sc.largeSenders)*100_000)
	cfg.SrcASes, cfg.ColluderASes = sc.largeSrcASes, 9
	var g *topo.RandomAS
	l.set("topo.build_large_ms", 1e3*bestOf(3, func() {
		var err error
		if g, err = topo.NewRandomAS(sim.New(seed), cfg); err != nil {
			logf("topo.build_large_ms: %v", err)
		}
	}))
	if g == nil {
		return
	}
	l.set("netsim.compute_routes_ms", 1e3*bestOf(3, g.Net.ComputeRoutes))
	l.set("topo.partition_large_ms", 1e3*bestOf(probeLoops, func() {
		if _, err := g.G.Partition(2); err != nil {
			logf("topo.partition_large_ms: %v", err)
		}
	}))
	rng := newXorshift(seed)
	var routers []*netsim.Node
	routers = append(routers, g.SrcAccess...)
	routers = append(routers, g.Transit...)
	type pair struct {
		from *netsim.Node
		dst  packet.NodeID
	}
	pairs := make([]pair, 4096)
	for i := range pairs {
		pairs[i] = pair{routers[rng.next()%uint64(len(routers))], g.Senders[rng.next()%uint64(len(g.Senders))].ID}
	}
	found := 0
	l.set("netsim.route_lookup_ns", bestNs(l.count(2_000_000), func(n int) {
		for i := 0; i < n; i++ {
			pr := pairs[i&4095]
			if g.Net.Route(pr.from, pr.dst) != nil {
				found++
			}
		}
	}))
	if found == 0 {
		logf("netsim.route_lookup_ns: no route found")
	}
}

// queueNs is one Enqueue plus one Dequeue on a discipline holding a
// standing backlog of 32 packets from 64 senders in 8 source ASes. The
// clock advances 10 us per operation so rate-capped channels refill.
func queueNs(l *ledger, seed uint64, q queue.Queue, shape func(p *packet.Packet)) float64 {
	rng := newXorshift(seed)
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		src := rng.next() % 64
		p := &packet.Packet{
			Src: packet.NodeID(100 + src), Dst: 7, SrcAS: packet.ASID(1 + src%8), DstAS: 99,
			Flow: packet.FlowID(1 + src), Size: packet.SizeData, Proto: packet.ProtoUDP,
		}
		shape(p)
		pkts[i] = p
	}
	now := sim.Time(0)
	for i := 0; i < 32; i++ {
		q.Enqueue(pkts[i], now)
	}
	next, served := 32, 0
	ns := bestNs(l.count(300_000), func(n int) {
		for i := 0; i < n; i++ {
			now += 10 * sim.Microsecond
			q.Enqueue(pkts[next&255], now)
			next++
			if p, _ := q.Dequeue(now); p != nil {
				served++
			}
		}
	})
	if served == 0 {
		logf("queue probe %T: nothing was served", q)
	}
	return ns
}

func probeQueues(l *ledger, seed uint64) {
	const rate = 10_000_000_000
	legacy := func(p *packet.Packet) { p.Kind = packet.KindLegacy }
	regular := func(p *packet.Packet) {
		p.Kind = packet.KindRegular
		p.FB = packet.Feedback{Mode: packet.FBNop, TS: 1, MAC: [4]byte{1, 2, 3, 4}}
	}
	request := func(p *packet.Packet) {
		p.Kind = packet.KindRequest
		p.Size = packet.SizeRequest
		p.Prio = uint8(p.Src % 4)
	}
	l.set("queue.fifo_ns", queueNs(l, seed, &queue.FIFO{}, legacy))
	l.set("aqm.droptail_ns", queueNs(l, seed, aqm.NewDropTail(1<<20), legacy))
	l.set("aqm.red_ns", queueNs(l, seed, aqm.NewRED(aqm.DefaultRED(rate), rand.New(rand.NewPCG(seed, 1))), legacy))
	l.set("fq.drr_ns", queueNs(l, seed, fq.NewDRR(fq.BySender, packet.SizeData, 1<<20), legacy))
	l.set("fq.hdrr_ns", queueNs(l, seed, fq.NewHDRR(fq.BySourceAS, fq.BySender, packet.SizeData, 1<<20), legacy))

	// The NetFence three-channel queue has no exported constructor: it
	// is what System.ProtectLink installs as the link's Q.
	nfq := func() queue.Queue {
		eng := sim.New(seed)
		net := netsim.New(eng)
		a, b := net.NewNode("a", 1), net.NewNode("b", 2)
		ab, _ := net.Connect(a, b, rate, sim.Millisecond)
		net.ComputeRoutes()
		core.NewSystem(net, core.DefaultConfig()).ProtectLink(ab)
		return ab.Q
	}
	l.set("core.nfqueue_regular_ns", queueNs(l, seed, nfq(), regular))
	l.set("core.nfqueue_request_ns", queueNs(l, seed, nfq(), request))
}
