// Package topo builds evaluation topologies as role-tagged Graphs: the
// dumbbell of §6.3 (unwanted-traffic and single-bottleneck collusion
// experiments), the parking lot of the multi-bottleneck study, a
// star/single-AS hotspot, and a seeded random AS-level graph — plus a
// registry so scenarios resolve topologies by name and third parties
// can add their own (see Register).
package topo

import (
	"fmt"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
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
		EdgeBps:       10_000_000_000,
		Delay:         10 * sim.Millisecond,
	}
}

// NewDumbbell builds the topology and computes routes. Its one sender
// group polices at the source-AS access routers, then Rv, then the
// colluder access routers; its one bottleneck is Rbl->Rbr.
func NewDumbbell(eng *sim.Engine, cfg DumbbellConfig) *Graph {
	g := NewGraph(eng)

	transitAS := packet.ASID(1000)
	rbl := g.Router("Rbl", transitAS)
	rbr := g.Router("Rbr", transitAS)
	g.BottleneckLink(rbl, rbr, cfg.BottleneckBps, cfg.Delay)

	for i := 0; i < cfg.SrcASes; i++ {
		as := packet.ASID(1 + i)
		ra := g.AccessRouter(0, fmt.Sprintf("Ra%d", i), as)
		g.Link(ra, rbl, cfg.EdgeBps, cfg.Delay)
		for h := 0; h < cfg.HostsPerAS; h++ {
			host := g.Sender(0, fmt.Sprintf("s%d.%d", i, h), as)
			g.Link(host, ra, cfg.EdgeBps, cfg.Delay)
		}
	}

	victimAS := packet.ASID(2000)
	rv := g.AccessRouter(0, "Rv", victimAS)
	g.Link(rbr, rv, cfg.EdgeBps, cfg.Delay)
	g.Link(rv, g.Victim(0, "victim", victimAS), cfg.EdgeBps, cfg.Delay)

	for i := 0; i < cfg.ColluderASes; i++ {
		as := packet.ASID(3000 + i)
		rc := g.AccessRouter(0, fmt.Sprintf("Rc%d", i), as)
		g.Link(rbr, rc, cfg.EdgeBps, cfg.Delay)
		g.Link(rc, g.Colluder(0, fmt.Sprintf("c%d", i), as), cfg.EdgeBps, cfg.Delay)
	}

	return g.Build()
}

// ParkingLotConfig parameterizes the multi-bottleneck topology: a chain
// R0 -L1-> R1 -L2-> R2 with three sender groups. Group A crosses both
// bottlenecks, Group C only L1, Group B only L2 (§6.3.2).
type ParkingLotConfig struct {
	// SendersPerGroup is the number of hosts per group (paper: 1000).
	SendersPerGroup int
	// ASesPerGroup splits each group's senders over this many ASes.
	ASesPerGroup int
	// ColluderASesPerGroup is the number of colluder destinations per
	// group's attackers.
	ColluderASesPerGroup int
	// L1Bps and L2Bps are the two bottleneck capacities.
	L1Bps, L2Bps int64
	EdgeBps      int64
	Delay        sim.Time
}

// DefaultParkingLot mirrors the paper's three-group setup at a
// configurable scale.
func DefaultParkingLot(sendersPerGroup int, l1, l2 int64) ParkingLotConfig {
	return ParkingLotConfig{
		SendersPerGroup:      sendersPerGroup,
		ASesPerGroup:         5,
		ColluderASesPerGroup: 3,
		L1Bps:                l1,
		L2Bps:                l2,
		EdgeBps:              10_000_000_000,
		Delay:                10 * sim.Millisecond,
	}
}

// NewParkingLot builds the topology and computes routes. Its
// bottlenecks are L1 = R0->R1 and L2 = R1->R2; group 0 = A (crosses L1
// and L2), group 1 = B (L2 only), group 2 = C (L1 only). Each group
// polices only at its source-AS access routers.
func NewParkingLot(eng *sim.Engine, cfg ParkingLotConfig) *Graph {
	g := NewGraph(eng)
	transitAS := packet.ASID(1000)
	r0 := g.Router("R0", transitAS)
	r1 := g.Router("R1", transitAS)
	r2 := g.Router("R2", transitAS)
	g.BottleneckLink(r0, r1, cfg.L1Bps, cfg.Delay)
	g.BottleneckLink(r1, r2, cfg.L2Bps, cfg.Delay)

	asCounter := packet.ASID(1)
	buildGroup := func(gi int, attach *netsim.Node, dstAttach *netsim.Node) {
		perAS := cfg.SendersPerGroup / cfg.ASesPerGroup
		for i := 0; i < cfg.ASesPerGroup; i++ {
			as := asCounter
			asCounter++
			ra := g.AccessRouter(gi, fmt.Sprintf("g%dRa%d", gi, i), as)
			g.Link(ra, attach, cfg.EdgeBps, cfg.Delay)
			for h := 0; h < perAS; h++ {
				host := g.Sender(gi, fmt.Sprintf("g%ds%d.%d", gi, i, h), as)
				g.Link(host, ra, cfg.EdgeBps, cfg.Delay)
			}
		}
		// Victim AS. Its access router is deliberately a plain router —
		// the parking-lot experiments police only the source side.
		vas := asCounter
		asCounter++
		rv := g.Router(fmt.Sprintf("g%dRv", gi), vas)
		g.Link(dstAttach, rv, cfg.EdgeBps, cfg.Delay)
		g.Link(rv, g.Victim(gi, fmt.Sprintf("g%dvictim", gi), vas), cfg.EdgeBps, cfg.Delay)
		// Colluder ASes.
		for i := 0; i < cfg.ColluderASesPerGroup; i++ {
			cas := asCounter
			asCounter++
			rc := g.Router(fmt.Sprintf("g%dRc%d", gi, i), cas)
			g.Link(dstAttach, rc, cfg.EdgeBps, cfg.Delay)
			g.Link(rc, g.Colluder(gi, fmt.Sprintf("g%dc%d", gi, i), cas), cfg.EdgeBps, cfg.Delay)
		}
	}
	buildGroup(0, r0, r2) // A: enters at R0, exits at R2 (L1+L2)
	buildGroup(1, r1, r2) // B: enters at R1, exits at R2 (L2)
	buildGroup(2, r0, r1) // C: enters at R0, exits at R1 (L1)

	return g.Build()
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
