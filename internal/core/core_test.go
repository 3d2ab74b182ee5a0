package core

import (
	"testing"

	"netfence/internal/defense"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/ratelimit"
	"netfence/internal/sim"
	"netfence/internal/topo"
	"netfence/internal/transport"
)

// TestNewSystemPoolMakesTrailers: a system with Passport on makes its
// network's pool allocate each packet with its trailer block, so the
// access routers' stamps cost no allocation of their own; with Passport
// off the pool allocates the bare struct.
func TestNewSystemPoolMakesTrailers(t *testing.T) {
	for _, on := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Passport = on
		d := topo.NewDumbbell(sim.New(1), topo.DumbbellConfig{
			SrcASes: 1, HostsPerAS: 1, BottleneckBps: 1_000_000, EdgeBps: 10_000_000, Delay: sim.Millisecond,
		})
		grp := d.Groups()[0]
		NewSystem(d.Net, cfg)
		if p := grp.Senders[0].Host.NewPacket(); (p.Passport != nil) != on {
			t.Errorf("Passport %v: a fresh pooled packet has trailer block %v, want one only with Passport on", on, p.Passport)
		}
	}
}

// deploy builds a dumbbell with NetFence fully installed; no host
// denies anyone.
func deploy(seed uint64, cfg topo.DumbbellConfig, nfCfg Config) (*topo.Graph, *System) {
	eng := sim.New(seed)
	d := topo.NewDumbbell(eng, cfg)
	s := NewSystem(d.Net, nfCfg)
	s.ProtectLink(d.Bottlenecks()[0])
	all := func(packet.ASID) bool { return true }
	d.Roles(all, s.ProtectAccess, func(h *netsim.Node, _ bool) { s.AttachHost(h, defense.Policy{}) })
	return d, s
}

// police polices p as a packet of the sender its source address names,
// without the uplink an arrival would come with.
func (ar *AccessRouter) police(p *packet.Packet) bool {
	return ar.policeSlot(ar.slotAt(ar.slotFor(p.Src)), p)
}

func TestRequestPolicingAtAccess(t *testing.T) {
	d, s := deploy(1, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	grp := d.Groups()[0]
	ar := s.Access(grp.Access[0])
	src := grp.Senders[0]
	mk := func(level uint8) *packet.Packet {
		return &packet.Packet{
			Src: src.ID, SrcAS: src.AS, Dst: grp.Victim.ID,
			Kind: packet.KindRequest, Prio: level, Size: packet.SizeRequest,
		}
	}
	// Level 0 always passes and gets nop feedback stamped.
	p := mk(0)
	if !ar.police(p) {
		t.Fatal("level-0 request dropped")
	}
	if !p.FB.IsNop() || p.FB.MAC == ([4]byte{}) {
		t.Fatalf("nop not stamped: %+v", p.FB)
	}
	// High levels drain the token bucket and then drop.
	admitted := 0
	for i := 0; i < 10; i++ {
		if ar.police(mk(11)) { // cost 1024 each; depth 2048
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("admitted %d level-11 packets from a full bucket, want 2", admitted)
	}
	if ar.ReqDropped == 0 {
		t.Fatal("no request drops counted")
	}
}

func TestInvalidFeedbackDemotedToRequest(t *testing.T) {
	d, s := deploy(2, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	grp, bn := d.Groups()[0], d.Bottlenecks()[0]
	ar := s.Access(grp.Access[0])
	src := grp.Senders[0]
	p := &packet.Packet{
		Src: src.ID, SrcAS: src.AS, Dst: grp.Victim.ID,
		Kind: packet.KindRegular, Size: 1500,
		FB: packet.Feedback{Mode: packet.FBMon, Link: bn.ID,
			Action: packet.ActIncr, TS: 0, MAC: [4]byte{1, 2, 3, 4}},
	}
	if !ar.police(p) {
		t.Fatal("demoted packet dropped outright (should ride request channel)")
	}
	if p.Kind != packet.KindRequest || p.Prio != 0 {
		t.Fatalf("not demoted: kind=%v prio=%d", p.Kind, p.Prio)
	}
	if ar.Demoted != 1 {
		t.Fatalf("Demoted = %d", ar.Demoted)
	}
	if !p.FB.IsNop() {
		t.Fatal("demoted packet missing fresh nop feedback")
	}
}

func TestBottleneckStampingRules(t *testing.T) {
	d, s := deploy(3, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	grp, bn := d.Groups()[0], d.Bottlenecks()[0]
	b := s.Bottleneck(bn)
	ar := s.Access(grp.Access[0])
	src := grp.Senders[0]

	// Not monitoring: nop feedback passes through unmodified.
	p := &packet.Packet{Src: src.ID, SrcAS: src.AS, Dst: grp.Victim.ID,
		Kind: packet.KindRequest, Size: packet.SizeRequest}
	ar.police(p)
	before := p.FB
	b.onTransmit(p, bn)
	if p.FB != before {
		t.Fatal("feedback modified outside a monitoring cycle")
	}

	// Rule 1: in mon state, nop becomes L-down even when not overloaded.
	b.StartMonitoring()
	b.onTransmit(p, bn)
	if p.FB.Mode != packet.FBMon || p.FB.Action != packet.ActDecr || p.FB.Link != bn.ID {
		t.Fatalf("rule 1 violated: %+v", p.FB)
	}
	// The stamped L-down validates at the access router.
	q := *p
	q.Kind = packet.KindRegular
	nowSec := d.Net.NowSec()
	if v := feedback.Validate(ar.ring, ar.kaiLookup, &q, nowSec, s.Cfg.WSec); v != feedback.ValidMon {
		t.Fatalf("stamped L-down does not validate: %v", v)
	}

	// Rule 2: L-down is never overwritten (simulate an upstream link's
	// L-down crossing a second monitored link).
	before = p.FB
	b.onTransmit(p, bn)
	if p.FB != before {
		t.Fatal("rule 2 violated: L-down overwritten")
	}

	// Rule 3: L-up survives when the link is not overloaded...
	p2 := &packet.Packet{Src: src.ID, SrcAS: src.AS, Dst: grp.Victim.ID,
		Kind: packet.KindRegular, Size: 1500}
	feedback.StampIncr(ar.ring.Current(), p2, nowSec, bn.ID)
	b.onTransmit(p2, bn)
	if p2.FB.Action != packet.ActIncr {
		t.Fatal("rule 3: L-up overwritten without overload")
	}
	// ...and is replaced while the link is inside the congestion
	// hysteresis window.
	b.q.red.Enqueue(&packet.Packet{Size: 1 << 20}, d.Net.Eng.Now()) // force a drop
	if !b.overloaded(d.Net.Eng.Now()) {
		t.Fatal("overload not registered")
	}
	b.onTransmit(p2, bn)
	if p2.FB.Action != packet.ActDecr {
		t.Fatal("rule 3: L-up kept despite overload")
	}
}

func TestShimKeepsFreshIncr(t *testing.T) {
	d, s := deploy(4, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	grp := d.Groups()[0]
	sh := Shim(grp.Senders[0])
	ps := sh.peer(grp.Victim.ID)
	incr := packet.Feedback{Mode: packet.FBMon, Link: 3, Action: packet.ActIncr, TS: 0}
	decr := packet.Feedback{Mode: packet.FBMon, Link: 3, Action: packet.ActDecr, TS: 0}
	sh.updatePresented(ps, incr)
	sh.updatePresented(ps, decr)
	if ps.presented.Action != packet.ActIncr {
		t.Fatal("fresh L-up displaced by L-down (§4.3.4 strategy)")
	}
	// Once the L-up expires, the L-down takes over.
	d.Net.Eng.RunUntil(sim.Time(s.Cfg.WSec+2) * sim.Second)
	sh.updatePresented(ps, decr)
	if ps.presented.Action != packet.ActDecr {
		t.Fatal("expired L-up still presented")
	}
}

func TestShimClassifiesSYNAsRequest(t *testing.T) {
	d, _ := deploy(5, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	grp := d.Groups()[0]
	sh := Shim(grp.Senders[0])
	p := &packet.Packet{
		Src: grp.Senders[0].ID, Dst: grp.Victim.ID, Flow: 7,
		Proto: packet.ProtoTCP, TCP: packet.TCPInfo{Flags: packet.FlagSYN},
		Kind: packet.KindRegular, Size: packet.SizeRequest,
	}
	sh.Egress(p)
	if p.Kind != packet.KindRequest || p.Prio != 0 {
		t.Fatalf("first SYN: kind=%v prio=%d", p.Kind, p.Prio)
	}
	// A retransmitted SYN one second later gets level 10 (cost 512 paid
	// by the ~1000 tokens of waiting) — the §6.3.1 narrative.
	d.Net.Eng.RunUntil(sim.Second + 10*sim.Millisecond)
	p2 := *p
	p2.Kind = packet.KindRegular
	sh.Egress(&p2)
	if p2.Prio != 10 {
		t.Fatalf("retransmitted SYN priority = %d, want 10", p2.Prio)
	}
}

func TestLimiterLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LimiterIdle = 5 * sim.Second
	d, s := deploy(6, topo.DefaultDumbbell(2, 1_000_000), cfg)
	grp, bn := d.Groups()[0], d.Bottlenecks()[0]
	ar := s.Access(grp.Access[0])
	src := grp.Senders[0]

	// Create a limiter by presenting valid L-down feedback.
	nowSec := d.Net.NowSec()
	p := &packet.Packet{Src: src.ID, SrcAS: src.AS, Dst: grp.Victim.ID,
		Kind: packet.KindRegular, Size: 1500}
	feedback.StampNop(ar.ring.Current(), p, nowSec)
	kai := s.kaiForSender(src.AS, bn.From.AS)
	feedback.StampDecr(kai, p, bn.ID)
	eng := d.Net.Eng
	pending := eng.Pending()
	if !ar.police(p) {
		t.Fatal("first limited packet should pass")
	}
	if ar.LimiterCount() != 1 {
		t.Fatalf("limiters = %d, want 1", ar.LimiterCount())
	}
	if lim := ar.Limiter(src.ID, bn.ID); lim == nil ||
		lim.Rate() != cfg.InitialRateBps {
		t.Fatal("limiter missing or wrong initial rate")
	}
	// A second packet right behind the first is cached: the regulator
	// now has its control tick and a departure pending.
	lim := ar.regLims[regKey{src.ID, bn.ID}]
	q := *p
	if ar.police(&q) || lim.pol.Backlog() != 1 {
		t.Fatalf("second packet not cached: backlog %d", lim.pol.Backlog())
	}
	if !lim.tick.Pending() || eng.Pending() != pending+2 {
		t.Fatalf("tick pending %v, %d events pending, want the tick and a departure over %d",
			lim.tick.Pending(), eng.Pending(), pending)
	}
	// With no L-down and no drops for Ta, the limiter is garbage
	// collected at a control-interval boundary, and nothing of it stays
	// scheduled.
	eng.RunUntil(12 * sim.Second)
	if ar.LimiterCount() != 0 {
		t.Fatalf("limiter not expired: %d", ar.LimiterCount())
	}
	if lim.tick.Pending() || lim.pol.Backlog() != 0 || eng.Pending() != pending {
		t.Fatalf("after expiry: tick pending %v, backlog %d, %d events pending, want none beyond the %d before",
			lim.tick.Pending(), lim.pol.Backlog(), eng.Pending(), pending)
	}
	ts := lim.ts
	eng.RunUntil(22 * sim.Second)
	if lim.ts != ts {
		t.Fatalf("an expired limiter still adjusts: interval start %d -> %d", ts, lim.ts)
	}
}

// TestRegulatorIsOneAllocation: a new (sender, link) regulator, with up
// to cacheInline packets cached behind its first, is one allocation — the
// leaky queue, its first cache slots and the control tick come with it.
// Starting a peer's echo stream is one allocation too.
func TestRegulatorIsOneAllocation(t *testing.T) {
	d, s := deploy(6, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	grp := d.Groups()[0]
	ar := s.Access(grp.Access[0])
	src := grp.Senders[0]
	slot := ar.slotAt(ar.slotFor(src.ID))
	const runs, cacheInline = 100, 8
	ar.regLims = make(map[regKey]*regLimiter, 2*runs) // map growth is not the regulator's
	pkts := make([]packet.Packet, 1+cacheInline)
	for i := range pkts {
		pkts[i] = packet.Packet{Src: src.ID, SrcAS: src.AS, Dst: grp.Victim.ID, Kind: packet.KindRegular, Size: 100}
	}
	link := packet.LinkID(1000) // no such link: no pair key to make
	allocs := testing.AllocsPerRun(runs, func() {
		link++
		lim := ar.limiter(slot, link)
		for i := range pkts {
			if v := lim.pol.Submit(&pkts[i]); v == ratelimit.Drop || (i > 0) != (v == ratelimit.Cached) {
				t.Fatalf("packet %d: verdict %v", i, v)
			}
		}
	})
	if allocs != 1 {
		t.Errorf("a regulator caching %d packets costs %.0f allocations, want 1", cacheInline, allocs)
	}

	sh := Shim(grp.Victim)
	peers := make([]peerState, runs+1)
	i := 0
	allocs = testing.AllocsPerRun(runs, func() {
		sh.ensureEcho(src.ID, &peers[i])
		if peers[i].echo == nil {
			t.Fatal("no echo started")
		}
		i++
	})
	if allocs != 1 {
		t.Errorf("starting an echo stream costs %.0f allocations, want 1", allocs)
	}
}

func TestAIMDDecreasesWithoutIncrFeedback(t *testing.T) {
	d, s := deploy(7, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	grp, bn := d.Groups()[0], d.Bottlenecks()[0]
	ar := s.Access(grp.Access[0])
	src := grp.Senders[0]
	nowSec := d.Net.NowSec()
	p := &packet.Packet{Src: src.ID, SrcAS: src.AS, Dst: grp.Victim.ID,
		Kind: packet.KindRegular, Size: 1500}
	feedback.StampNop(ar.ring.Current(), p, nowSec)
	kai := s.kaiForSender(src.AS, bn.From.AS)
	feedback.StampDecr(kai, p, bn.ID)
	ar.police(p)
	lim := ar.Limiter(src.ID, bn.ID)
	start := lim.Rate()
	// Hiding L-down (sending nothing) cannot hold the rate: it decays
	// multiplicatively every control interval.
	d.Net.Eng.RunUntil(3 * Ilim)
	if lim.Rate() >= start {
		t.Fatalf("rate did not decrease: %d -> %d", start, lim.Rate())
	}
}

// TestCollusionFairShare is the single-bottleneck §6.3.2 control loop in
// miniature: one legitimate TCP sender and one colluding UDP pair share a
// 400 kbps bottleneck. NetFence must detect the attack, start a
// monitoring cycle, and confine both senders to roughly the fair share.
func TestCollusionFairShare(t *testing.T) {
	cfg := topo.DefaultDumbbell(2, 400_000)
	cfg.ColluderASes = 1
	d, s := deploy(8, cfg, DefaultConfig())
	grp, bn := d.Groups()[0], d.Bottlenecks()[0]
	legit, attacker := grp.Senders[0], grp.Senders[1]
	colluder := grp.Colluders[0]

	rcv := transport.NewTCPReceiver(grp.Victim.Host, 1)
	tcp := transport.NewTCPSender(legit.Host, grp.Victim.ID, 1, -1)
	tcp.Start()
	sink := transport.NewUDPSink(colluder.Host, 2)
	udp := transport.NewUDPSource(attacker.Host, colluder.ID, 2, 1_000_000, 1500)
	udp.Start()

	const (
		warm = 60 * sim.Second
		end  = 180 * sim.Second
	)
	d.Net.Eng.RunUntil(warm)
	if !s.Bottleneck(bn).Monitoring() {
		t.Fatal("monitoring cycle never started under a 1 Mbps flood")
	}
	legitStart, atkStart := rcv.DeliveredBytes(), sink.Bytes
	d.Net.Eng.RunUntil(end)
	window := (end - warm).Seconds()
	legitBps := float64(rcv.DeliveredBytes()-legitStart) * 8 / window
	atkBps := float64(sink.Bytes-atkStart) * 8 / window

	const fair = 200_000.0
	if atkBps > 1.4*fair {
		t.Fatalf("attacker got %.0f bps, far above fair share %.0f", atkBps, fair)
	}
	if legitBps < 0.4*fair {
		t.Fatalf("legit sender got %.0f bps, below 40%% of fair share %.0f", legitBps, fair)
	}
	ratio := legitBps / atkBps
	if ratio < 0.4 {
		t.Fatalf("throughput ratio %.2f (legit %.0f vs attacker %.0f)", ratio, legitBps, atkBps)
	}
	// The attacker's access router must hold a (sender, bottleneck)
	// limiter pinned near the fair share.
	ar := s.Access(grp.Access[1])
	lim := ar.Limiter(attacker.ID, bn.ID)
	if lim == nil {
		t.Fatal("no rate limiter for the attacker")
	}
	if lim.Rate() > int64(2*fair) {
		t.Fatalf("attacker limiter rate %d way above fair share", lim.Rate())
	}
}

// TestFeedbackAsCapability is the §6.3.1 scenario in miniature: the
// victim identifies the attacker and withholds feedback, so the attacker
// is stuck flooding the request channel while the legitimate client's
// transfers complete quickly.
func TestFeedbackAsCapability(t *testing.T) {
	d, _ := deploy(9, topo.DefaultDumbbell(2, 500_000), DefaultConfig())
	grp := d.Groups()[0]
	legit, attacker := grp.Senders[0], grp.Senders[1]
	// The victim denies the second sender.
	Shim(grp.Victim).deny = func(src packet.NodeID) bool { return src == attacker.ID }
	spawned := 0
	grp.Victim.Host.OnUnknownFlow = func(p *packet.Packet) netsim.Agent {
		spawned++
		return transport.NewTCPReceiver(grp.Victim.Host, p.Flow)
	}
	flood := transport.NewRequestFlooder(attacker.Host, grp.Victim.ID, 900, 1_000_000, 6)
	flood.Start()
	client := transport.NewFileClient(legit.Host, grp.Victim.ID, 20_000)
	client.Start()
	d.Net.Eng.RunUntil(40 * sim.Second)
	client.Stop()
	flood.Stop()

	if client.Completed < 8 {
		t.Fatalf("completed %d transfers in 40s under request flood", client.Completed)
	}
	if spawned != client.Completed+client.Failed && spawned < client.Completed {
		t.Logf("spawned=%d completed=%d failed=%d", spawned, client.Completed, client.Failed)
	}
	// The victim never accepted an attacker connection.
	if got := grp.Victim.Host.Agent(900); got != nil {
		t.Fatal("victim spawned an agent for the attacker's flow")
	}
}

// TestOnOffAttackBounded: synchronized on-off floods cannot depress a
// legitimate sender below its always-on fair share (§5.2.1, Figure 11).
func TestOnOffAttackBounded(t *testing.T) {
	cfg := topo.DefaultDumbbell(2, 400_000)
	cfg.ColluderASes = 1
	d, _ := deploy(10, cfg, DefaultConfig())
	grp := d.Groups()[0]
	legit, attacker := grp.Senders[0], grp.Senders[1]

	rcv := transport.NewTCPReceiver(grp.Victim.Host, 1)
	transport.NewTCPSender(legit.Host, grp.Victim.ID, 1, -1).Start()
	transport.NewUDPSink(grp.Colluders[0].Host, 2)
	udp := transport.NewUDPSource(attacker.Host, grp.Colluders[0].ID, 2, 1_000_000, 1500)
	udp.OnTime = 500 * sim.Millisecond
	udp.OffTime = 1500 * sim.Millisecond
	udp.Start()

	warm := 60 * sim.Second
	end := 180 * sim.Second
	d.Net.Eng.RunUntil(warm)
	start := rcv.DeliveredBytes()
	d.Net.Eng.RunUntil(end)
	legitBps := float64(rcv.DeliveredBytes()-start) * 8 / (end - warm).Seconds()
	// Appendix A guarantees at least nu*rho*C/(G+B) with rho = (1-MD)^3
	// = 0.729: about 146 kbps of the 200 kbps fair share, regardless of
	// the attack's shape.
	rho := (1 - 0.1) * (1 - 0.1) * (1 - 0.1)
	bound := rho * 200_000
	if legitBps < bound {
		t.Fatalf("on-off attack depressed user to %.0f bps, below the %.0f bound", legitBps, bound)
	}
}

// TestPerASLocalization: a compromised AS whose access router does not
// police cannot deny service to senders of well-behaved ASes once the
// per-AS fallback engages (§4.5).
func TestPerASLocalization(t *testing.T) {
	eng := sim.New(11)
	cfg := topo.DefaultDumbbell(2, 400_000)
	cfg.ColluderASes = 1
	d := topo.NewDumbbell(eng, cfg)
	grp, bn := d.Groups()[0], d.Bottlenecks()[0]
	nfCfg := DefaultConfig()
	nfCfg.PerASFallback = true
	s := NewSystem(d.Net, nfCfg)
	s.ProtectLink(bn)
	// AS of Senders[1] is compromised: its access router is NOT
	// protected and its host runs no NetFence shim, blasting raw
	// regular packets.
	s.ProtectAccess(grp.Access[0])
	s.ProtectAccess(grp.Access[2]) // Rv, after the two source access routers
	s.ProtectAccess(grp.Access[3]) // the colluder's access router
	s.AttachHost(grp.Senders[0], defense.Policy{})
	s.AttachHost(grp.Victim, defense.Policy{})
	s.AttachHost(grp.Colluders[0], defense.Policy{})

	rcv := transport.NewTCPReceiver(grp.Victim.Host, 1)
	transport.NewTCPSender(grp.Senders[0].Host, grp.Victim.ID, 1, -1).Start()
	transport.NewUDPSink(grp.Colluders[0].Host, 2)
	transport.NewUDPSource(grp.Senders[1].Host, grp.Colluders[0].ID, 2, 2_000_000, 1500).Start()

	warm := 90 * sim.Second
	end := 210 * sim.Second
	d.Net.Eng.RunUntil(warm)
	b := s.Bottleneck(bn)
	if !b.FallbackActive() {
		t.Fatal("per-AS fallback never engaged against a compromised AS")
	}
	start := rcv.DeliveredBytes()
	d.Net.Eng.RunUntil(end)
	legitBps := float64(rcv.DeliveredBytes()-start) * 8 / (end - warm).Seconds()
	// With per-AS queuing the honest AS owns half the link: 200 kbps.
	if legitBps < 100_000 {
		t.Fatalf("honest AS sender got only %.0f bps under a compromised AS", legitBps)
	}
}

// TestPassportBlocksSpoofedAS: with Passport enabled, packets claiming a
// forged source AS are dropped at the bottleneck, while honest traffic
// flows.
func TestPassportBlocksSpoofedAS(t *testing.T) {
	cfg := topo.DefaultDumbbell(2, 1_000_000)
	nfCfg := DefaultConfig()
	nfCfg.Passport = true
	d, _ := deploy(12, cfg, nfCfg)
	grp := d.Groups()[0]
	// Honest transfer completes with Passport stamping on.
	transport.NewTCPReceiver(grp.Victim.Host, 1)
	ok := false
	snd := transport.NewTCPSender(grp.Senders[0].Host, grp.Victim.ID, 1, 50_000)
	snd.OnComplete = func(fct sim.Time, o bool) { ok = o }
	snd.Start()
	d.Net.Eng.RunUntil(30 * sim.Second)
	if !ok {
		t.Fatal("honest transfer failed with Passport enabled")
	}
	// A spoofed packet injected past the access router (compromised
	// router scenario) presenting forged regular-channel credentials
	// carries no valid trailer and dies at the bottleneck.
	sink := transport.NewUDPSink(grp.Victim.Host, 99)
	spoof := &packet.Packet{
		Src: grp.Senders[1].ID, SrcAS: 555, Dst: grp.Victim.ID, DstAS: grp.Victim.AS,
		Flow: 99, Kind: packet.KindRegular, Proto: packet.ProtoUDP,
		Size: 1500, Payload: 1400,
		FB: packet.Feedback{MAC: [4]byte{1, 2, 3, 4}}, // forged stamp
	}
	d.Net.Forward(grp.Access[1], spoof)
	d.Net.Eng.RunUntil(31 * sim.Second)
	if sink.Packets != 0 {
		t.Fatal("spoofed packet crossed the bottleneck")
	}
	// An UNSTAMPED packet is indistinguishable from a legacy host's
	// traffic: §4.4 demotes it to the best-effort channel instead of
	// dropping it, so incremental deployment keeps legacy ASes online.
	bare := &packet.Packet{
		Src: grp.Senders[1].ID, SrcAS: grp.Senders[1].AS, Dst: grp.Victim.ID, DstAS: grp.Victim.AS,
		Flow: 99, Kind: packet.KindRegular, Proto: packet.ProtoUDP,
		Size: 1500, Payload: 1400,
	}
	d.Net.Forward(grp.Access[1], bare)
	d.Net.Eng.RunUntil(32 * sim.Second)
	if sink.Packets != 1 {
		t.Fatalf("legacy (unstamped) packet not served best-effort: %d delivered", sink.Packets)
	}
	if bare.Kind != packet.KindLegacy {
		t.Fatalf("unstamped packet not demoted to legacy: %v", bare.Kind)
	}
}

func TestKeyRotationTransparentToFlows(t *testing.T) {
	// A greedy TCP through its own bottleneck triggers a monitoring
	// cycle (NetFence does not distinguish flash crowds from attacks,
	// §4.3.1), so raw throughput converges slowly; what rotation must
	// guarantee is that honestly presented feedback NEVER fails
	// validation — no packet may be demoted to the request channel.
	cfg := topo.DefaultDumbbell(2, 1_000_000)
	nfCfg := DefaultConfig()
	nfCfg.KeyRotate = 8 * sim.Second
	d, s := deploy(13, cfg, nfCfg)
	grp := d.Groups()[0]
	rcv := transport.NewTCPReceiver(grp.Victim.Host, 1)
	transport.NewTCPSender(grp.Senders[0].Host, grp.Victim.ID, 1, -1).Start()
	d.Net.Eng.RunUntil(60 * sim.Second)
	if rcv.DeliveredBytes() < 500_000 {
		t.Fatalf("flow starved: %d bytes in 60s", rcv.DeliveredBytes())
	}
	// Ra0 and Rv, which follows the two source access routers.
	for _, ra := range []*netsim.Node{grp.Access[0], grp.Access[2]} {
		if n := s.Access(ra).Demoted; n != 0 {
			t.Fatalf("%d honest packets demoted across key rotations at %v", n, ra)
		}
	}
}

// TestRequestPoliceZeroAlloc pins the hot-path fix in handleRequest:
// when the flow is not sampled by the flight recorder, admitting a
// request packet must not allocate — the "request admit prio=..."
// trace detail is built only behind the traced() gate.
func TestRequestPoliceZeroAlloc(t *testing.T) {
	d, s := deploy(3, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	grp := d.Groups()[0]
	ar := s.Access(grp.Access[0])
	src := grp.Senders[0]
	p := &packet.Packet{
		Src: src.ID, SrcAS: src.AS, Dst: grp.Victim.ID,
		Kind: packet.KindRequest, Size: packet.SizeRequest,
	}
	// Warm up: the first admission allocates the per-sender limiter.
	if !ar.police(p) {
		t.Fatal("warm-up request dropped")
	}
	if d.Net.Rec.Sampled(uint64(p.Flow)) {
		t.Fatal("test flow unexpectedly sampled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.Kind = packet.KindRequest
		p.Prio = 0 // level 0 is always admitted
		if !ar.police(p) {
			t.Fatal("request dropped mid-run")
		}
	})
	if allocs != 0 {
		t.Fatalf("request admission allocates %.1f per packet, want 0", allocs)
	}
}

// TestFallbackDropTracedOnce holds the §4.5 fallback to the link's one
// drop path: a packet the per-AS queue refuses is traced once, as
// "fq-full", and a packet it evicts once, as "fq-evict". Each drop is
// counted once in netsim_drop_total and queue_drop_regular and charged
// to the source AS of the packet dropped.
func TestFallbackDropTracedOnce(t *testing.T) {
	net := netsim.New(sim.New(1))
	a, b := net.NewNode("a", 1), net.NewNode("b", 2)
	l, _ := net.Connect(a, b, 1_000_000, sim.Millisecond) // a 25,000 B regular channel
	net.ComputeRoutes()
	net.Rec = obs.NewRecorder([]uint64{1})
	s := NewSystem(net, DefaultConfig())
	s.ProtectLink(l)
	q := s.Bottleneck(l).q
	q.enableFallback(0)
	enqueue := func(as packet.ASID, size int32) bool {
		p := net.Pool.Get()
		p.Src, p.SrcAS, p.Dst, p.Flow, p.Size = packet.NodeID(as), as, b.ID, 1, size
		p.Kind = packet.KindRegular
		p.FB = packet.Feedback{Mode: packet.FBNop, TS: 1, MAC: [4]byte{1, 2, 3, 4}}
		return q.Enqueue(p, sim.Millisecond)
	}
	// Sixteen ASes hold one full-size packet each: 24,000 B.
	for as := packet.ASID(1); as <= 16; as++ {
		if !enqueue(as, 1500) {
			t.Fatalf("AS %d refused below the limit", as)
		}
	}
	// No class holds more than a seventeenth AS's packet: it is refused.
	if enqueue(17, 1500) {
		t.Fatal("the per-AS queue took a packet past its limit")
	}
	// AS 1 grows to 2,500 B, the buffer to its limit; AS 2's next packet
	// evicts AS 1's tail.
	if !enqueue(1, 1000) || !enqueue(2, 1000) {
		t.Fatal("the per-AS queue refused a packet it had room or a victim for")
	}
	var drops []string
	for _, ev := range net.Rec.Events() {
		if ev.Kind == obs.HopDrop {
			drops = append(drops, ev.Detail)
		}
	}
	if len(drops) != 2 || drops[0] != "fq-full" || drops[1] != "fq-evict" {
		t.Errorf("drop records %q, want [fq-full fq-evict]", drops)
	}
	if n, r := net.Cells[obs.NetsimDrops], net.Cells[obs.QueueDropRegular]; n != 2 || r != 2 {
		t.Errorf("netsim_drop_total %d, queue_drop_regular %d; want 2 and 2", n, r)
	}
	for _, as := range []packet.ASID{17, 1} {
		if _, ok := q.lastCongestedForAS(as); !ok {
			t.Errorf("AS %d's drop was not charged to it", as)
		}
	}
	if _, ok := q.lastCongestedForAS(2); ok {
		t.Error("AS 2 was charged for AS 1's eviction")
	}
}
