package attack

import (
	"strings"
	"testing"
	"unsafe"

	"netfence/internal/core"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/transport"
)

// TestStrategicRequestLevelGolden pins the §6.3.1 computed level for the
// Figure 9/8 populations, so moving the helper out of internal/core
// provably changed nothing. At the paper's fixed attacker/capacity ratio
// (75% of the population at 10 Gbps / 25K senders) the level is
// scale-invariant: 5 at both paper and tiny scale.
func TestStrategicRequestLevelGolden(t *testing.T) {
	cases := []struct {
		name          string
		attackers     int
		bottleneckBps int64
		want          uint8
	}{
		{"fig9 paper (750 of 1000, 25K label)", 750, 400_000_000, 5},
		{"fig9 tiny (15 of 20, 25K label)", 15, 8_000_000, 5},
		{"fig8 paper (990 of 1000, 25K label)", 990, 400_000_000, 6},
		// A bigger botnet affords a higher level on the same capacity.
		{"100K attackers, 400 Mbps", 100_000, 400_000_000, 12},
		{"single attacker", 1, 400_000_000, 1},
	}
	for _, c := range cases {
		if got := StrategicRequestLevel(c.attackers, c.bottleneckBps); got != c.want {
			t.Errorf("%s: level = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTheoremBound(t *testing.T) {
	// rho = (1-0.1)^3 = 0.729; C/N = 400 kbps at the tiny 25K label.
	got := TheoremBound(8_000_000, 20)
	if want := 0.729 * 400_000; got < want-1 || got > want+1 {
		t.Fatalf("bound = %f, want ~%f", got, want)
	}
	if TheoremBound(0, 20) != 0 || TheoremBound(8_000_000, 0) != 0 {
		t.Fatal("degenerate inputs must yield a zero bound")
	}
}

// TestRegistry checks the five in-tree strategies resolve by name and
// the error paths mirror the defense registry's.
func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"flood", "onoff-sync", "request-prio", "replay", "legacy-flood"} {
		if !Registered(want) {
			t.Fatalf("registry missing %q (have %v)", want, names)
		}
	}
	if Registered("bogus") {
		t.Fatal("bogus strategy registered")
	}
	if _, err := Build("bogus", BuildOptions{}); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("unknown strategy error = %v", err)
	}
	// Alternate spellings canonicalize.
	if _, err := Build(" Flood ", BuildOptions{}); err != nil {
		t.Fatalf("canonicalization failed: %v", err)
	}
	// Strategies reject parameters outside their declared ranges.
	if _, err := Build("onoff-sync", BuildOptions{Params: map[string]float64{"off": 0}}); err == nil {
		t.Fatal("onoff-sync accepted a zero-interval silence")
	}
	// request-prio needs a bottleneck to compute the §6.3.1 level.
	if _, err := Build("request-prio", BuildOptions{}); err == nil {
		t.Fatal("request-prio built without a bottleneck")
	}
	env := &Env{Attackers: 15, BottleneckBps: 8_000_000}
	s, err := Build("request-prio", BuildOptions{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if lvl := s.(*requestPrio).Level(); lvl != 5 {
		t.Fatalf("request-prio level = %d, want the §6.3.1 strategic 5", lvl)
	}
}

// testNet is a minimal undefended host-router-host wire for controller
// behavior tests.
func testNet(seed uint64) (*sim.Engine, *netsim.Network, *netsim.Node, *netsim.Node) {
	eng := sim.New(seed)
	n := netsim.New(eng)
	src := n.NewHost("src", 1)
	r := n.NewNode("r", 1)
	dst := n.NewHost("dst", 2)
	n.Connect(src, r, 10_000_000, sim.Millisecond)
	n.Connect(r, dst, 10_000_000, sim.Millisecond)
	n.ComputeRoutes()
	return eng, n, src, dst
}

// TestOnOffSyncPhaseLock drives the onoff-sync strategy over a bare wire
// and checks the burst/silence alternation is locked to the control
// interval: traffic flows in on-phases, none in off-phases.
func TestOnOffSyncPhaseLock(t *testing.T) {
	eng, _, src, dst := testNet(1)
	env := &Env{Eng: eng, Attackers: 1, BottleneckBps: 1_000_000}
	strat, err := Build("onoff-sync", BuildOptions{RateBps: 400_000, Env: env,
		Params: map[string]float64{"on": 1, "off": 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(strat, env)
	sink := transport.NewUDPSink(dst.Host, 7)
	ctrl.AddSender(src.Host, dst.ID, 7)
	ctrl.Start()

	ilim := core.Ilim
	var perInterval []int64
	last := int64(0)
	for i := 1; i <= 6; i++ {
		eng.RunUntil(sim.Time(i) * ilim)
		perInterval = append(perInterval, sink.Bytes-last)
		last = sink.Bytes
	}
	ctrl.Stop()
	// Period 3: intervals 0, 3 are bursts; 1, 2, 4, 5 are silence (a
	// final in-flight packet may spill into the first silent interval).
	if perInterval[0] == 0 || perInterval[3] == 0 {
		t.Fatalf("no traffic in on-intervals: %v", perInterval)
	}
	for _, idx := range []int{2, 5} {
		if perInterval[idx] > 1500 {
			t.Fatalf("off-interval %d carried %d bytes: %v", idx, perInterval[idx], perInterval)
		}
	}
}

// TestOnOffTrickleKeepsBursts pins the re-pacing fix: with a slow
// off-phase trickle whose inter-packet gap exceeds the whole on/off
// period, the burst phases must still fire at full rate (the pending
// trickle event is rescheduled when the Decision changes).
func TestOnOffTrickleKeepsBursts(t *testing.T) {
	eng, _, src, dst := testNet(4)
	env := &Env{Eng: eng, Attackers: 1, BottleneckBps: 1_000_000}
	// Trickle gap: TxTime(1500 B, 1 kbps) = 12 s > the 6 s period.
	strat, err := Build("onoff-sync", BuildOptions{RateBps: 400_000, Env: env,
		Params: map[string]float64{"on": 1, "off": 2, "trickle_bps": 1_000}})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(strat, env)
	sink := transport.NewUDPSink(dst.Host, 8)
	ctrl.AddSender(src.Host, dst.ID, 8)
	ctrl.Start()
	ilim := core.Ilim
	var burst2 int64
	last := int64(0)
	for i := 1; i <= 4; i++ {
		eng.RunUntil(sim.Time(i) * ilim)
		if i == 4 { // interval 3 is the second burst
			burst2 = sink.Bytes - last
		}
		last = sink.Bytes
	}
	ctrl.Stop()
	// 400 kbps over a 2 s interval is ~100 kB; well above one trickle
	// packet.
	if burst2 < 50_000 {
		t.Fatalf("second burst carried only %d bytes — trickle event swallowed the on-phase", burst2)
	}
}

// TestControllerRestart pins the shim unwrap on Stop: a second Start
// must re-wrap cleanly (not wrap the Sender around itself) and resume
// emission.
func TestControllerRestart(t *testing.T) {
	eng, _, src, dst := testNet(5)
	env := &Env{Eng: eng, Attackers: 1}
	strat, err := Build("flood", BuildOptions{RateBps: 200_000, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(strat, env)
	sink := transport.NewUDPSink(dst.Host, 12)
	s := ctrl.AddSender(src.Host, dst.ID, 12)
	ctrl.Start()
	eng.RunUntil(sim.Second)
	ctrl.Stop()
	if src.Host.Shim != nil {
		t.Fatalf("Stop left the shim wrapped: %T", src.Host.Shim)
	}
	mark := sink.Bytes
	ctrl.Start()
	eng.RunUntil(2 * sim.Second)
	ctrl.Stop()
	if sink.Bytes <= mark {
		t.Fatal("no traffic after restart")
	}
	if s.inner != nil {
		t.Fatal("inner shim not cleared after final Stop")
	}
}

// TestReplayCraft checks the replay strategy's cache-once semantics:
// honest until the first observed feedback, then that exact token on
// every packet forever.
func TestReplayCraft(t *testing.T) {
	eng, _, src, dst := testNet(2)
	env := &Env{Eng: eng, Attackers: 1}
	strat, err := Build("replay", BuildOptions{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(strat, env)
	s := ctrl.AddSender(src.Host, dst.ID, 9)

	p := &packet.Packet{Kind: packet.KindRegular}
	if strat.Craft(s, p) {
		t.Fatal("replay crafted before any feedback was observed")
	}
	fb := packet.Feedback{Mode: packet.FBMon, Link: 3, Action: packet.ActIncr, TS: 17, MAC: [4]byte{1, 2, 3, 4}}
	strat.Observe(s, fb)
	newer := packet.Feedback{Mode: packet.FBMon, Link: 3, Action: packet.ActDecr, TS: 99}
	strat.Observe(s, newer) // must NOT displace the cached token
	q := &packet.Packet{}
	if !strat.Craft(s, q) {
		t.Fatal("replay did not craft after feedback was cached")
	}
	if q.FB != fb || q.Kind != packet.KindRegular {
		t.Fatalf("crafted packet carries %+v, want the first cached %+v", q.FB, fb)
	}
}

// TestControllerObservesFeedback checks the shim wrap records returned
// feedback on the Sender (the policer-inference surface) even on
// undefended hosts.
func TestControllerObservesFeedback(t *testing.T) {
	eng, _, src, dst := testNet(3)
	env := &Env{Eng: eng, Attackers: 1}
	strat, err := Build("flood", BuildOptions{RateBps: 100_000, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(strat, env)
	transport.NewUDPSink(dst.Host, 11)
	s := ctrl.AddSender(src.Host, dst.ID, 11)
	ctrl.Start()
	eng.RunUntil(sim.Second)

	// A reply carrying returned feedback must land in the Sender state.
	reply := &packet.Packet{
		Dst: src.ID, Flow: 11, Proto: packet.ProtoUDP, Size: 100,
		Ret: packet.Returned{Present: true, Mode: packet.FBMon, Link: 5, Action: packet.ActDecr, TS: 1},
	}
	dst.Host.Send(reply)
	eng.RunUntil(2 * sim.Second)
	ctrl.Stop()
	if !s.HasFB || s.LastFB.Link != 5 || s.Downs != 1 {
		t.Fatalf("feedback not observed: HasFB=%v LastFB=%+v Downs=%d", s.HasFB, s.LastFB, s.Downs)
	}
	if s.Sent == 0 {
		t.Fatal("flood sender emitted nothing")
	}
}

// TestSenderLayoutBudget pins the per-sender attack state inside the
// 256-byte malloc size class: a large scenario holds one per attack
// host. The Appendix B.1 multi-bottleneck header sits behind a pointer
// made on first use, and the scenario view is the controller's. A
// controller carves its senders from 8 KB slab chunks, 31 senders in
// 7936 bytes beside the allocator's header.
func TestSenderLayoutBudget(t *testing.T) {
	if n := unsafe.Sizeof(Sender{}); n > 256 {
		t.Fatalf("sizeof(Sender) = %d, budget 256", n)
	}
	var c Controller
	if n, b := c.carve.ChunkLen(), c.carve.ChunkLen()*int(unsafe.Sizeof(Sender{})); n != 31 || b != 7936 {
		t.Errorf("a sender slab chunk holds %d senders in %d bytes, want 31 in 7936", n, b)
	}
}
