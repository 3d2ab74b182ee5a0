// Package topo builds evaluation topologies as role-tagged Graphs: the
// dumbbell of §6.3 (unwanted-traffic and single-bottleneck collusion
// experiments), the parking lot of the multi-bottleneck study, a
// star/single-AS hotspot, and a seeded random AS-level graph — plus a
// registry so scenarios resolve topologies by name and third parties
// can add their own (see Register).
package topo

import (
	"strconv"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// The evaluation's link parameters (§6.3.1): every non-bottleneck link
// runs at 10 Gbps, "sufficient to avoid congestion", and every link
// has 10 ms of propagation delay.
const (
	edgeBps   = 10_000_000_000
	linkDelay = 10 * sim.Millisecond
)

// DumbbellConfig parameterizes the §6.3.1 topology: ten source ASes
// connect through a transit AS (routers Rbl—Rbr, the bottleneck) to a
// destination AS holding the victim, plus optional colluder ASes hanging
// off Rbr (§6.3.2 adds nine of them).
type DumbbellConfig struct {
	// SrcASes is the number of source-side ASes (paper: 10).
	SrcASes int
	// HostsPerAS is the number of sender hosts per source AS (paper: 100).
	HostsPerAS int
	// ColluderASes is the number of right-side ASes with one colluder
	// host each (paper: 9 in the collusion experiments, 0 otherwise).
	ColluderASes int
	// BottleneckBps is the Rbl->Rbr capacity; the paper scales it from
	// 400 Mbps down to 50 Mbps to emulate 25K-200K senders on 10 Gbps.
	BottleneckBps int64
	// EdgeBps is the capacity of all non-bottleneck links ("sufficient
	// to avoid congestion").
	EdgeBps int64
	// Delay is the per-link propagation delay (paper: 10 ms).
	Delay sim.Time
}

// DefaultDumbbell mirrors the paper's setup at a configurable sender
// count: senders are split evenly over ten source ASes.
func DefaultDumbbell(senders int, bottleneckBps int64) DumbbellConfig {
	ases := 10
	if senders < ases {
		ases = senders
	}
	return DumbbellConfig{
		SrcASes:       ases,
		HostsPerAS:    senders / ases,
		BottleneckBps: bottleneckBps,
		EdgeBps:       edgeBps,
		Delay:         linkDelay,
	}
}

// NewDumbbell builds the topology and computes routes. Its one sender
// group polices at the source-AS access routers, then Rv, then the
// colluder access routers; its one bottleneck is Rbl->Rbr.
func NewDumbbell(eng *sim.Engine, cfg DumbbellConfig) *Graph {
	g := NewGraph(eng)
	srcNodes, c := cfg.SrcASes*(1+cfg.HostsPerAS), cfg.ColluderASes
	g.Net.Reserve(4+srcNodes+2*c, cfg.SrcASes*cfg.HostsPerAS+1+c, 3+srcNodes+2*c)

	transitAS := packet.ASID(1000)
	rbl := g.Router("Rbl", transitAS)
	rbr := g.Router("Rbr", transitAS)
	g.BottleneckLink(rbl, rbr, cfg.BottleneckBps, cfg.Delay)

	for i := 0; i < cfg.SrcASes; i++ {
		as := packet.ASID(1 + i)
		ra := g.AccessRouter(0, nodeName("Ra", i), as)
		g.Link(ra, rbl, cfg.EdgeBps, cfg.Delay)
		numbered(nodeName("s", i)+".", cfg.HostsPerAS, func(name string) {
			g.Link(g.Sender(0, name, as), ra, cfg.EdgeBps, cfg.Delay)
		})
	}

	victimAS := packet.ASID(2000)
	rv := g.AccessRouter(0, "Rv", victimAS)
	g.Link(rbr, rv, cfg.EdgeBps, cfg.Delay)
	g.Link(rv, g.Victim(0, "victim", victimAS), cfg.EdgeBps, cfg.Delay)

	for i := 0; i < cfg.ColluderASes; i++ {
		as := packet.ASID(3000 + i)
		rc := g.AccessRouter(0, nodeName("Rc", i), as)
		g.Link(rbr, rc, cfg.EdgeBps, cfg.Delay)
		g.Link(rc, g.Colluder(0, nodeName("c", i), as), cfg.EdgeBps, cfg.Delay)
	}

	return g.Build()
}

// ParkingLotConfig parameterizes the multi-bottleneck topology: a chain
// R0 -L1-> R1 -L2-> R2 with three sender groups. Group A crosses both
// bottlenecks, Group C only L1, Group B only L2 (§6.3.2). Each group
// has three colluder destinations.
type ParkingLotConfig struct {
	// SendersPerGroup is the number of hosts per group (paper: 1000).
	SendersPerGroup int
	// ASesPerGroup splits each group's senders over this many ASes.
	ASesPerGroup int
	// L1Bps and L2Bps are the two bottleneck capacities.
	L1Bps, L2Bps int64
}

// colluderASesPerGroup is the parking lot's colluder-AS count per group.
const colluderASesPerGroup = 3

// DefaultParkingLot mirrors the paper's three-group setup at a
// configurable scale.
func DefaultParkingLot(sendersPerGroup int, l1, l2 int64) ParkingLotConfig {
	return ParkingLotConfig{
		SendersPerGroup: sendersPerGroup,
		ASesPerGroup:    5,
		L1Bps:           l1,
		L2Bps:           l2,
	}
}

// NewParkingLot builds the topology and computes routes. Its
// bottlenecks are L1 = R0->R1 and L2 = R1->R2; group 0 = A (crosses L1
// and L2), group 1 = B (L2 only), group 2 = C (L1 only). Each group
// polices only at its source-AS access routers.
func NewParkingLot(eng *sim.Engine, cfg ParkingLotConfig) *Graph {
	g := NewGraph(eng)
	perAS := cfg.SendersPerGroup / cfg.ASesPerGroup
	srcNodes := cfg.ASesPerGroup * (1 + perAS)
	g.Net.Reserve(3+3*(srcNodes+2+2*colluderASesPerGroup), 3*(cfg.ASesPerGroup*perAS+1+colluderASesPerGroup),
		2+3*(srcNodes+2+2*colluderASesPerGroup))
	transitAS := packet.ASID(1000)
	r0 := g.Router("R0", transitAS)
	r1 := g.Router("R1", transitAS)
	r2 := g.Router("R2", transitAS)
	g.BottleneckLink(r0, r1, cfg.L1Bps, linkDelay)
	g.BottleneckLink(r1, r2, cfg.L2Bps, linkDelay)

	asCounter := packet.ASID(1)
	buildGroup := func(gi int, attach *netsim.Node, dstAttach *netsim.Node) {
		pre := "g" + strconv.Itoa(gi)
		raPre, sPre := pre+"Ra", pre+"s"
		for i := 0; i < cfg.ASesPerGroup; i++ {
			as := asCounter
			asCounter++
			ra := g.AccessRouter(gi, nodeName(raPre, i), as)
			g.Link(ra, attach, edgeBps, linkDelay)
			numbered(nodeName(sPre, i)+".", perAS, func(name string) {
				g.Link(g.Sender(gi, name, as), ra, edgeBps, linkDelay)
			})
		}
		// Victim AS. Its access router is deliberately a plain router —
		// the parking-lot experiments police only the source side.
		vas := asCounter
		asCounter++
		rv := g.Router(pre+"Rv", vas)
		g.Link(dstAttach, rv, edgeBps, linkDelay)
		g.Link(rv, g.Victim(gi, pre+"victim", vas), edgeBps, linkDelay)
		// Colluder ASes.
		for i := 0; i < colluderASesPerGroup; i++ {
			cas := asCounter
			asCounter++
			rc := g.Router(nodeName(pre+"Rc", i), cas)
			g.Link(dstAttach, rc, edgeBps, linkDelay)
			g.Link(rc, g.Colluder(gi, nodeName(pre+"c", i), cas), edgeBps, linkDelay)
		}
	}
	buildGroup(0, r0, r2) // A: enters at R0, exits at R2 (L1+L2)
	buildGroup(1, r1, r2) // B: enters at R1, exits at R2 (L2)
	buildGroup(2, r0, r1) // C: enters at R0, exits at R1 (L1)

	return g.Build()
}

// nodeName is prefix followed by the decimal number i ("Ra3"): a
// router's name, made in one allocation.
func nodeName(prefix string, i int) string {
	b := make([]byte, 0, 32)
	return string(strconv.AppendInt(append(b, prefix...), int64(i), 10))
}

// numbered calls add with prefix+"0", prefix+"1", … prefix+(n-1), in
// order: the names of one AS's hosts, cut from one string so that
// naming them costs a few allocations instead of one per host.
func numbered(prefix string, n int, add func(name string)) {
	digits := 1
	for d := n; d >= 10; d /= 10 {
		digits++
	}
	b := make([]byte, 0, n*(len(prefix)+digits))
	ends := make([]int, n)
	for h := range ends {
		b = strconv.AppendInt(append(b, prefix...), int64(h), 10)
		ends[h] = len(b)
	}
	all, start := string(b), 0
	for _, end := range ends {
		add(all[start:end])
		start = end
	}
}

// SplitEvenly splits a population over at most wantASes ASes, lowering
// the AS count to the largest divisor so every AS gets the same host
// count — the shared declared-population-is-a-contract policy of every
// builder (0 wantASes = 10).
func SplitEvenly(population, wantASes int) (ases, perAS int) {
	if wantASes <= 0 {
		wantASes = 10
	}
	if wantASes > population {
		wantASes = population
	}
	for wantASes > 1 && population%wantASes != 0 {
		wantASes--
	}
	if wantASes < 1 {
		wantASes = 1
	}
	return wantASes, population / wantASes
}
