package baseline

import (
	"testing"

	"netfence/internal/defense"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
	"netfence/internal/transport"
)

// deploySys installs a system on a dumbbell. deniedIdx are indexes into
// the dumbbell's senders that the victim identifies as unwanted.
func deploySys(seed uint64, cfg topo.DumbbellConfig, mk func(n *netsim.Network) defense.System, deniedIdx ...int) (*topo.Graph, defense.System) {
	eng := sim.New(seed)
	d := topo.NewDumbbell(eng, cfg)
	s := mk(d.Net)
	s.ProtectLink(d.Bottlenecks()[0])
	denySet := map[packet.NodeID]bool{}
	for _, i := range deniedIdx {
		denySet[d.Groups()[0].Senders[i].ID] = true
	}
	all := func(packet.ASID) bool { return true }
	d.Roles(all, s.ProtectAccess, func(h *netsim.Node, victim bool) {
		pol := defense.Policy{}
		if victim {
			pol.Deny = func(src packet.NodeID) bool { return denySet[src] }
		}
		s.AttachHost(h, pol)
	})
	return d, s
}

func TestTVACapabilityGrantLoop(t *testing.T) {
	cfg := topo.DefaultDumbbell(2, 1_000_000)
	d, _ := deploySys(1, cfg, func(n *netsim.Network) defense.System { return NewTVA() })
	grp := d.Groups()[0]
	rcv := transport.NewTCPReceiver(grp.Victim.Host, 1)
	ok := false
	s := transport.NewTCPSender(grp.Senders[0].Host, grp.Victim.ID, 1, 100_000, transport.DefaultTCP())
	s.OnComplete = func(fct sim.Time, o bool) { ok = o }
	s.Start()
	d.Net.Eng.RunUntil(30 * sim.Second)
	if !ok || rcv.DeliveredBytes() != 100_000 {
		t.Fatalf("TCP over TVA+ failed: ok=%v delivered=%d", ok, rcv.DeliveredBytes())
	}
}

func TestTVAWithheldCapabilityThrottles(t *testing.T) {
	// The victim denies the attacker: no capability is ever granted, so
	// the attacker's 1 Mbps flood is squeezed into the 5% request channel.
	cfg := topo.DefaultDumbbell(2, 1_000_000)
	d, _ := deploySys(2, cfg, func(n *netsim.Network) defense.System { return NewTVA() }, 1)
	grp := d.Groups()[0]
	attacker := grp.Senders[1]
	sink := transport.NewUDPSink(grp.Victim.Host, 5)
	_ = sink
	transport.NewUDPSource(attacker.Host, grp.Victim.ID, 5, 1_000_000, 1500).Start()
	d.Net.Eng.RunUntil(20 * sim.Second)
	// Everything the victim sees arrived via the 5% request channel
	// (50 kbps); the victim's shim then discards it.
	got := float64(sink.Bytes) * 8 / 20
	if got > 60_000 {
		t.Fatalf("unauthorized flood reached %.0f bps through a 50 kbps request channel", got)
	}
}

func TestTVAColludersHurtVictimThroughput(t *testing.T) {
	// Per-destination fair queuing: with colluders soaking up
	// destinations, each legitimate sender to the victim gets a smaller
	// share than each attacker (the paper's TVA+ weakness, Figure 9).
	cfg := topo.DefaultDumbbell(8, 800_000)
	cfg.ColluderASes = 3
	d, _ := deploySys(3, cfg, func(n *netsim.Network) defense.System { return NewTVA() })
	grp := d.Groups()[0]
	// 2 legit senders -> victim, 6 attackers -> 3 colluders.
	var legitRcv [2]*transport.TCPReceiver
	for i := 0; i < 2; i++ {
		legitRcv[i] = transport.NewTCPReceiver(grp.Victim.Host, packet.FlowID(i+1))
		transport.NewTCPSender(grp.Senders[i].Host, grp.Victim.ID, packet.FlowID(i+1), -1, transport.DefaultTCP()).Start()
	}
	var sinks [6]*transport.UDPSink
	for i := 0; i < 6; i++ {
		col := grp.Colluders[i%3]
		flow := packet.FlowID(10 + i)
		sinks[i] = transport.NewUDPSink(col.Host, flow)
		transport.NewUDPSource(grp.Senders[2+i].Host, col.ID, flow, 1_000_000, 1500).Start()
	}
	d.Net.Eng.RunUntil(60 * sim.Second)
	legitBps := float64(legitRcv[0].DeliveredBytes()+legitRcv[1].DeliveredBytes()) * 8 / 60 / 2
	var atkBytes int64
	for _, s := range sinks {
		atkBytes += s.Bytes
	}
	atkBps := float64(atkBytes) * 8 / 60 / 6
	// Victim is 1 of 4 destinations: its 2 senders share 200 kbps
	// (100 kbps each); 6 attackers share 600 kbps (100 kbps each) — but
	// TCP-vs-UDP and per-dest competition should leave legit at or below
	// attacker throughput. The key check: attackers collectively hold
	// ~3/4 of the link.
	if atkBps < legitBps {
		t.Fatalf("TVA+ should favor attackers with colluders: legit %.0f vs attacker %.0f", legitBps, atkBps)
	}
	if float64(atkBytes)*8/60 < 400_000 {
		t.Fatalf("attackers only reached %.0f bps aggregate", float64(atkBytes)*8/60)
	}
}

func TestStopItFilterBlocksFlood(t *testing.T) {
	cfg := topo.DefaultDumbbell(2, 1_000_000)
	var st *StopIt
	d, _ := deploySys(4, cfg, func(n *netsim.Network) defense.System {
		st = NewStopIt(n)
		return st
	}, 1)
	grp, bn := d.Groups()[0], d.Bottlenecks()[0]
	attacker := grp.Senders[1]
	sink := transport.NewUDPSink(grp.Victim.Host, 5)
	transport.NewUDPSource(attacker.Host, grp.Victim.ID, 5, 1_000_000, 1500).Start()
	d.Net.Eng.RunUntil(20 * sim.Second)
	if st.FiltersInstalled == 0 {
		t.Fatal("no filter installed")
	}
	// Only packets in flight before the filter landed (~200 ms worth)
	// ever reached the victim's shim.
	if sink.Packets > 0 {
		t.Fatal("denied packets were delivered to the transport")
	}
	sa := st.access[attacker.ID]
	if sa == nil || sa.Blocked == 0 {
		t.Fatal("filter never blocked at the source access router")
	}
	// The flood keeps running but is dropped at its own access router:
	// the bottleneck carries almost nothing.
	if bn.TxBytes > 1_000_000/8 {
		t.Fatalf("bottleneck carried %d bytes despite source filtering", bn.TxBytes)
	}
}

func TestStopItLegitUnaffectedByFilters(t *testing.T) {
	cfg := topo.DefaultDumbbell(2, 1_000_000)
	var st *StopIt
	d, _ := deploySys(5, cfg, func(n *netsim.Network) defense.System {
		st = NewStopIt(n)
		return st
	}, 1)
	grp := d.Groups()[0]
	transport.NewTCPReceiver(grp.Victim.Host, 1)
	ok := false
	s := transport.NewTCPSender(grp.Senders[0].Host, grp.Victim.ID, 1, 100_000, transport.DefaultTCP())
	s.OnComplete = func(fct sim.Time, o bool) { ok = o }
	s.Start()
	transport.NewUDPSource(grp.Senders[1].Host, grp.Victim.ID, 5, 1_000_000, 1500).Start()
	d.Net.Eng.RunUntil(30 * sim.Second)
	if !ok {
		t.Fatal("legit transfer failed under a filtered flood")
	}
}

func TestFQFairShareUnderFlood(t *testing.T) {
	// 2 Mbps across 4 senders: 500 kbps fair share with a 50 KB shared
	// buffer (a tiny 400 kbps link leaves TCP under 2 packets of buffer,
	// where DRR's TCP-vs-UDP bias is extreme).
	cfg := topo.DefaultDumbbell(4, 2_000_000)
	d, _ := deploySys(6, cfg, func(n *netsim.Network) defense.System { return NewFQ() })
	grp := d.Groups()[0]
	rcv := transport.NewTCPReceiver(grp.Victim.Host, 1)
	transport.NewTCPSender(grp.Senders[0].Host, grp.Victim.ID, 1, -1, transport.DefaultTCP()).Start()
	for i := 1; i < 4; i++ {
		transport.NewUDPSink(grp.Victim.Host, packet.FlowID(10+i))
		transport.NewUDPSource(grp.Senders[i].Host, grp.Victim.ID, packet.FlowID(10+i), 1_000_000, 1500).Start()
	}
	d.Net.Eng.RunUntil(60 * sim.Second)
	bps := float64(rcv.DeliveredBytes()) * 8 / 60
	// Fair share 500 kbps; DRR's TCP-vs-UDP interaction costs some of it
	// (the paper observes the same, §6.3.2), but TCP must hold a sizable
	// fraction.
	if bps < 250_000 {
		t.Fatalf("TCP got %.0f bps under FQ, want > 250 kbps of its 500 kbps share", bps)
	}
}

func TestNoneUndefendedCollapse(t *testing.T) {
	cfg := topo.DefaultDumbbell(4, 2_000_000)
	d, _ := deploySys(7, cfg, func(n *netsim.Network) defense.System { return NewNone() })
	grp := d.Groups()[0]
	rcv := transport.NewTCPReceiver(grp.Victim.Host, 1)
	transport.NewTCPSender(grp.Senders[0].Host, grp.Victim.ID, 1, -1, transport.DefaultTCP()).Start()
	for i := 1; i < 4; i++ {
		transport.NewUDPSink(grp.Victim.Host, packet.FlowID(10+i))
		transport.NewUDPSource(grp.Senders[i].Host, grp.Victim.ID, packet.FlowID(10+i), 1_000_000, 1500).Start()
	}
	d.Net.Eng.RunUntil(60 * sim.Second)
	bps := float64(rcv.DeliveredBytes()) * 8 / 60
	// 3 Mbps of unresponsive UDP into a 2 Mbps DropTail starves TCP.
	if bps > 150_000 {
		t.Fatalf("TCP got %.0f bps with no defense; expected starvation", bps)
	}
}

func TestCapabilityExpiry(t *testing.T) {
	cap := packet.Capability{Present: true, Dst: 5, Expire: 100}
	if !cap.Valid(5, 100) {
		t.Fatal("capability invalid at expiry instant")
	}
	if cap.Valid(5, 101) {
		t.Fatal("expired capability valid")
	}
	if cap.Valid(6, 50) {
		t.Fatal("capability valid for wrong destination")
	}
	if (packet.Capability{}).Valid(0, 0) {
		t.Fatal("zero capability valid")
	}
}
