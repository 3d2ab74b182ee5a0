package core

import (
	"testing"

	"netfence/internal/defense"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
	"netfence/internal/transport"
)

// deploy builds a dumbbell with NetFence fully installed. denied lists
// sources the victim identifies as unwanted.
func deploy(seed uint64, cfg topo.DumbbellConfig, nfCfg Config, denied ...packet.NodeID) (*topo.Dumbbell, *System) {
	eng := sim.New(seed)
	d := topo.NewDumbbell(eng, cfg)
	s := NewSystem(d.Net, nfCfg)
	s.ProtectLink(d.Bottleneck)
	for _, ra := range d.SrcAccess {
		s.ProtectAccess(ra)
	}
	s.ProtectAccess(d.VictimAccess)
	for _, rc := range d.ColluderAccess {
		s.ProtectAccess(rc)
	}
	denySet := map[packet.NodeID]bool{}
	for _, id := range denied {
		denySet[id] = true
	}
	for _, h := range d.Senders {
		s.AttachHost(h, defense.Policy{})
	}
	s.AttachHost(d.Victim, defense.Policy{Deny: func(src packet.NodeID) bool {
		return denySet[src]
	}})
	for _, c := range d.Colluders {
		s.AttachHost(c, defense.Policy{})
	}
	return d, s
}

// police polices p as a packet of the sender its source address names,
// without the uplink an arrival would come with.
func (ar *AccessRouter) police(p *packet.Packet) bool {
	return ar.policeSlot(ar.slotAt(ar.slotFor(p.Src)), p)
}

func TestRequestPolicingAtAccess(t *testing.T) {
	d, s := deploy(1, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	ar := s.Access(d.SrcAccess[0])
	src := d.Senders[0]
	mk := func(level uint8) *packet.Packet {
		return &packet.Packet{
			Src: src.ID, SrcAS: src.AS, Dst: d.Victim.ID,
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
	ar := s.Access(d.SrcAccess[0])
	src := d.Senders[0]
	p := &packet.Packet{
		Src: src.ID, SrcAS: src.AS, Dst: d.Victim.ID,
		Kind: packet.KindRegular, Size: 1500,
		FB: packet.Feedback{Mode: packet.FBMon, Link: d.Bottleneck.ID,
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
	b := s.Bottleneck(d.Bottleneck)
	ar := s.Access(d.SrcAccess[0])
	src := d.Senders[0]

	// Not monitoring: nop feedback passes through unmodified.
	p := &packet.Packet{Src: src.ID, SrcAS: src.AS, Dst: d.Victim.ID,
		Kind: packet.KindRequest, Size: packet.SizeRequest}
	ar.police(p)
	before := p.FB
	b.onTransmit(p, d.Bottleneck)
	if p.FB != before {
		t.Fatal("feedback modified outside a monitoring cycle")
	}

	// Rule 1: in mon state, nop becomes L-down even when not overloaded.
	b.StartMonitoring()
	b.onTransmit(p, d.Bottleneck)
	if p.FB.Mode != packet.FBMon || p.FB.Action != packet.ActDecr || p.FB.Link != d.Bottleneck.ID {
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
	b.onTransmit(p, d.Bottleneck)
	if p.FB != before {
		t.Fatal("rule 2 violated: L-down overwritten")
	}

	// Rule 3: L-up survives when the link is not overloaded...
	p2 := &packet.Packet{Src: src.ID, SrcAS: src.AS, Dst: d.Victim.ID,
		Kind: packet.KindRegular, Size: 1500}
	feedback.StampIncr(ar.ring.Current(), p2, nowSec, d.Bottleneck.ID)
	b.onTransmit(p2, d.Bottleneck)
	if p2.FB.Action != packet.ActIncr {
		t.Fatal("rule 3: L-up overwritten without overload")
	}
	// ...and is replaced while the link is inside the congestion
	// hysteresis window.
	b.q.red.Enqueue(&packet.Packet{Size: 1 << 20}, d.Net.Eng.Now()) // force a drop
	if !b.overloaded(d.Net.Eng.Now()) {
		t.Fatal("overload not registered")
	}
	b.onTransmit(p2, d.Bottleneck)
	if p2.FB.Action != packet.ActDecr {
		t.Fatal("rule 3: L-up kept despite overload")
	}
}

func TestShimKeepsFreshIncr(t *testing.T) {
	d, s := deploy(4, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	sh := Shim(d.Senders[0])
	ps := sh.peer(d.Victim.ID)
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
	sh := Shim(d.Senders[0])
	p := &packet.Packet{
		Src: d.Senders[0].ID, Dst: d.Victim.ID, Flow: 7,
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
	ar := s.Access(d.SrcAccess[0])
	src := d.Senders[0]

	// Create a limiter by presenting valid L-down feedback.
	nowSec := d.Net.NowSec()
	p := &packet.Packet{Src: src.ID, SrcAS: src.AS, Dst: d.Victim.ID,
		Kind: packet.KindRegular, Size: 1500}
	feedback.StampNop(ar.ring.Current(), p, nowSec)
	kai := s.kaiForSender(src.AS, d.Bottleneck.From.AS)
	feedback.StampDecr(kai, p, d.Bottleneck.ID)
	if !ar.police(p) {
		t.Fatal("first limited packet should pass")
	}
	if ar.LimiterCount() != 1 {
		t.Fatalf("limiters = %d, want 1", ar.LimiterCount())
	}
	if lim := ar.Limiter(src.ID, d.Bottleneck.ID); lim == nil ||
		lim.Rate() != cfg.InitialRateBps {
		t.Fatal("limiter missing or wrong initial rate")
	}
	// With no L-down and no drops for Ta, the limiter is garbage
	// collected at a control-interval boundary.
	d.Net.Eng.RunUntil(12 * sim.Second)
	if ar.LimiterCount() != 0 {
		t.Fatalf("limiter not expired: %d", ar.LimiterCount())
	}
}

func TestAIMDDecreasesWithoutIncrFeedback(t *testing.T) {
	d, s := deploy(7, topo.DefaultDumbbell(2, 1_000_000), DefaultConfig())
	ar := s.Access(d.SrcAccess[0])
	src := d.Senders[0]
	nowSec := d.Net.NowSec()
	p := &packet.Packet{Src: src.ID, SrcAS: src.AS, Dst: d.Victim.ID,
		Kind: packet.KindRegular, Size: 1500}
	feedback.StampNop(ar.ring.Current(), p, nowSec)
	kai := s.kaiForSender(src.AS, d.Bottleneck.From.AS)
	feedback.StampDecr(kai, p, d.Bottleneck.ID)
	ar.police(p)
	lim := ar.Limiter(src.ID, d.Bottleneck.ID)
	start := lim.Rate()
	// Hiding L-down (sending nothing) cannot hold the rate: it decays
	// multiplicatively every control interval.
	d.Net.Eng.RunUntil(3 * s.Cfg.Ilim)
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
	legit, attacker := d.Senders[0], d.Senders[1]
	colluder := d.Colluders[0]

	rcv := transport.NewTCPReceiver(d.Victim.Host, 1)
	tcp := transport.NewTCPSender(legit.Host, d.Victim.ID, 1, -1, transport.DefaultTCP())
	tcp.Start()
	sink := transport.NewUDPSink(colluder.Host, 2)
	udp := transport.NewUDPSource(attacker.Host, colluder.ID, 2, 1_000_000, 1500)
	udp.Start()

	const (
		warm = 60 * sim.Second
		end  = 180 * sim.Second
	)
	d.Net.Eng.RunUntil(warm)
	if !s.Bottleneck(d.Bottleneck).Monitoring() {
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
	ar := s.Access(d.SrcAccess[1])
	lim := ar.Limiter(attacker.ID, d.Bottleneck.ID)
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
	cfg := topo.DefaultDumbbell(2, 500_000)
	nfCfg := DefaultConfig()
	d, s := deploy(9, cfg, nfCfg, 1+1) // deny the second sender (IDs assigned below)
	legit, attacker := d.Senders[0], d.Senders[1]
	if attacker.ID != 1+1 {
		// Recompute denial if ID assumptions drift: rebuild with the
		// actual attacker ID.
		d, s = deploy(9, cfg, nfCfg, attacker.ID)
		legit, attacker = d.Senders[0], d.Senders[1]
	}
	_ = s
	spawned := 0
	d.Victim.Host.OnUnknownFlow = func(p *packet.Packet) netsim.Agent {
		spawned++
		return transport.NewTCPReceiver(d.Victim.Host, p.Flow)
	}
	flood := transport.NewRequestFlooder(attacker.Host, d.Victim.ID, 900, 1_000_000, 6)
	flood.Start()
	client := transport.NewFileClient(legit.Host, d.Victim.ID, 20_000, transport.DefaultTCP())
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
	if got := d.Victim.Host.Agent(900); got != nil {
		t.Fatal("victim spawned an agent for the attacker's flow")
	}
}

// TestOnOffAttackBounded: synchronized on-off floods cannot depress a
// legitimate sender below its always-on fair share (§5.2.1, Figure 11).
func TestOnOffAttackBounded(t *testing.T) {
	cfg := topo.DefaultDumbbell(2, 400_000)
	cfg.ColluderASes = 1
	d, _ := deploy(10, cfg, DefaultConfig())
	legit, attacker := d.Senders[0], d.Senders[1]

	rcv := transport.NewTCPReceiver(d.Victim.Host, 1)
	transport.NewTCPSender(legit.Host, d.Victim.ID, 1, -1, transport.DefaultTCP()).Start()
	transport.NewUDPSink(d.Colluders[0].Host, 2)
	udp := transport.NewUDPSource(attacker.Host, d.Colluders[0].ID, 2, 1_000_000, 1500)
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
	nfCfg := DefaultConfig()
	nfCfg.PerASFallback = true
	nfCfg.FallbackAfter = 20 * sim.Second
	s := NewSystem(d.Net, nfCfg)
	s.ProtectLink(d.Bottleneck)
	// AS of Senders[1] is compromised: its access router is NOT
	// protected and its host runs no NetFence shim, blasting raw
	// regular packets.
	s.ProtectAccess(d.SrcAccess[0])
	s.ProtectAccess(d.VictimAccess)
	s.ProtectAccess(d.ColluderAccess[0])
	s.AttachHost(d.Senders[0], defense.Policy{})
	s.AttachHost(d.Victim, defense.Policy{})
	s.AttachHost(d.Colluders[0], defense.Policy{})

	rcv := transport.NewTCPReceiver(d.Victim.Host, 1)
	transport.NewTCPSender(d.Senders[0].Host, d.Victim.ID, 1, -1, transport.DefaultTCP()).Start()
	transport.NewUDPSink(d.Colluders[0].Host, 2)
	transport.NewUDPSource(d.Senders[1].Host, d.Colluders[0].ID, 2, 2_000_000, 1500).Start()

	warm := 90 * sim.Second
	end := 210 * sim.Second
	d.Net.Eng.RunUntil(warm)
	b := s.Bottleneck(d.Bottleneck)
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
	// Honest transfer completes with Passport stamping on.
	transport.NewTCPReceiver(d.Victim.Host, 1)
	ok := false
	snd := transport.NewTCPSender(d.Senders[0].Host, d.Victim.ID, 1, 50_000, transport.DefaultTCP())
	snd.OnComplete = func(fct sim.Time, o bool) { ok = o }
	snd.Start()
	d.Net.Eng.RunUntil(30 * sim.Second)
	if !ok {
		t.Fatal("honest transfer failed with Passport enabled")
	}
	// A spoofed packet injected past the access router (compromised
	// router scenario) presenting forged regular-channel credentials
	// carries no valid trailer and dies at the bottleneck.
	sink := transport.NewUDPSink(d.Victim.Host, 99)
	spoof := &packet.Packet{
		Src: d.Senders[1].ID, SrcAS: 555, Dst: d.Victim.ID, DstAS: d.Victim.AS,
		Flow: 99, Kind: packet.KindRegular, Proto: packet.ProtoUDP,
		Size: 1500, Payload: 1400,
		FB: packet.Feedback{MAC: [4]byte{1, 2, 3, 4}}, // forged stamp
	}
	d.Net.Forward(d.SrcAccess[1], spoof)
	d.Net.Eng.RunUntil(31 * sim.Second)
	if sink.Packets != 0 {
		t.Fatal("spoofed packet crossed the bottleneck")
	}
	// An UNSTAMPED packet is indistinguishable from a legacy host's
	// traffic: §4.4 demotes it to the best-effort channel instead of
	// dropping it, so incremental deployment keeps legacy ASes online.
	bare := &packet.Packet{
		Src: d.Senders[1].ID, SrcAS: d.Senders[1].AS, Dst: d.Victim.ID, DstAS: d.Victim.AS,
		Flow: 99, Kind: packet.KindRegular, Proto: packet.ProtoUDP,
		Size: 1500, Payload: 1400,
	}
	d.Net.Forward(d.SrcAccess[1], bare)
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
	rcv := transport.NewTCPReceiver(d.Victim.Host, 1)
	transport.NewTCPSender(d.Senders[0].Host, d.Victim.ID, 1, -1, transport.DefaultTCP()).Start()
	d.Net.Eng.RunUntil(60 * sim.Second)
	if rcv.DeliveredBytes() < 500_000 {
		t.Fatalf("flow starved: %d bytes in 60s", rcv.DeliveredBytes())
	}
	for _, ra := range []*netsim.Node{d.SrcAccess[0], d.VictimAccess} {
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
	ar := s.Access(d.SrcAccess[0])
	src := d.Senders[0]
	p := &packet.Packet{
		Src: src.ID, SrcAS: src.AS, Dst: d.Victim.ID,
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
