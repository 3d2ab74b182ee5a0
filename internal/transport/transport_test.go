package transport

import (
	"testing"
	"testing/quick"

	"netfence/internal/aqm"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// testNet builds h1 - r1 - r2 - h2 with a configurable bottleneck.
func testNet(seed uint64, bottleneck int64, qlimit int) (*netsim.Network, *netsim.Node, *netsim.Node) {
	eng := sim.New(seed)
	n := netsim.New(eng)
	h1 := n.NewHost("h1", 1)
	r1 := n.NewNode("r1", 1)
	r2 := n.NewNode("r2", 2)
	h2 := n.NewHost("h2", 2)
	n.Connect(h1, r1, 100_000_000, sim.Millisecond)
	mid, _ := n.Connect(r1, r2, bottleneck, 10*sim.Millisecond)
	n.Connect(r2, h2, 100_000_000, sim.Millisecond)
	if qlimit > 0 {
		mid.SetQueue(aqm.NewDropTail(qlimit))
	}
	n.ComputeRoutes()
	return n, h1, h2
}

func TestTCPTransferCompletes(t *testing.T) {
	n, h1, h2 := testNet(1, 10_000_000, 0)
	r := NewTCPReceiver(h2.Host, 1)
	var fct sim.Time
	ok := false
	s := NewTCPSender(h1.Host, h2.ID, 1, 100_000)
	s.OnComplete = func(d sim.Time, o bool) { fct, ok = d, o }
	s.Start()
	n.Eng.Run()
	if !ok {
		t.Fatal("transfer did not complete")
	}
	if r.DeliveredBytes() != 100_000 {
		t.Fatalf("delivered %d bytes, want 100000", r.DeliveredBytes())
	}
	// 100 KB at 10 Mbps is ~80 ms of serialization + handshake + ~24 ms
	// RTT slow-start rounds; anything under 2 s is sane, under 24 ms is not.
	if fct < 24*sim.Millisecond || fct > 2*sim.Second {
		t.Fatalf("FCT = %v", fct)
	}
}

func TestTCPSurvivesHeavyLoss(t *testing.T) {
	// A 3-packet bottleneck buffer forces drops; the transfer must still
	// complete with every byte delivered exactly once, in order.
	n, h1, h2 := testNet(2, 1_000_000, 4500)
	r := NewTCPReceiver(h2.Host, 1)
	ok := false
	s := NewTCPSender(h1.Host, h2.ID, 1, 300_000)
	s.OnComplete = func(d sim.Time, o bool) { ok = o }
	s.Start()
	n.Eng.Run()
	if !ok {
		t.Fatal("transfer did not complete under loss")
	}
	if r.DeliveredBytes() != 300_000 {
		t.Fatalf("delivered %d, want 300000", r.DeliveredBytes())
	}
	if s.Retransmits() == 0 {
		t.Fatal("expected retransmissions under a 3-packet buffer")
	}
}

func TestTCPLongFlowFillsBottleneck(t *testing.T) {
	n, h1, h2 := testNet(3, 2_000_000, 50_000)
	r := NewTCPReceiver(h2.Host, 1)
	s := NewTCPSender(h1.Host, h2.ID, 1, -1)
	s.Start()
	n.Eng.RunUntil(30 * sim.Second)
	tput := float64(r.DeliveredBytes()) * 8 / 30
	// Goodput should reach at least 70% of the 2 Mbps bottleneck.
	if tput < 1_400_000 {
		t.Fatalf("long-flow goodput = %.0f bps, want > 1.4 Mbps", tput)
	}
	s.Close()
}

func TestTwoTCPFlowsShareFairly(t *testing.T) {
	eng := sim.New(4)
	n := netsim.New(eng)
	a := n.NewHost("a", 1)
	b := n.NewHost("b", 1)
	r1 := n.NewNode("r1", 1)
	r2 := n.NewNode("r2", 2)
	dst := n.NewHost("dst", 2)
	n.Connect(a, r1, 100_000_000, sim.Millisecond)
	n.Connect(b, r1, 100_000_000, sim.Millisecond)
	mid, _ := n.Connect(r1, r2, 4_000_000, 10*sim.Millisecond)
	mid.SetQueue(aqm.NewDropTail(100_000))
	n.Connect(r2, dst, 100_000_000, sim.Millisecond)
	n.ComputeRoutes()
	ra := NewTCPReceiver(dst.Host, 1)
	rb := NewTCPReceiver(dst.Host, 2)
	NewTCPSender(a.Host, dst.ID, 1, -1).Start()
	NewTCPSender(b.Host, dst.ID, 2, -1).Start()
	eng.RunUntil(60 * sim.Second)
	ta, tb := float64(ra.DeliveredBytes()), float64(rb.DeliveredBytes())
	ratio := ta / tb
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("unfair share: %.0f vs %.0f (ratio %.2f)", ta, tb, ratio)
	}
}

func TestTCPSYNRetryAndAbort(t *testing.T) {
	// No receiver registered: SYNs go unanswered; the sender must abort
	// after 9 retries with exponential backoff capped at the 60 s
	// maximum RTO (1+2+4+...+32+60+60+60+60 = 303 s). The transfer is
	// unbounded, so the 200 s transfer abort cannot pre-empt it.
	n, h1, h2 := testNet(5, 10_000_000, 0)
	ok, done := true, false
	var fct sim.Time
	s := NewTCPSender(h1.Host, h2.ID, 1, -1)
	s.OnComplete = func(d sim.Time, o bool) { fct, ok, done = d, o, true }
	s.Start()
	n.Eng.Run()
	if !done || ok {
		t.Fatalf("done=%v ok=%v, want failed completion", done, ok)
	}
	if fct != 303*sim.Second {
		t.Fatalf("aborted at %v, want 303s", fct)
	}
}

func TestTCPTransferTimeout(t *testing.T) {
	// No receiver: a bounded transfer stuck in the SYN backoff is
	// aborted by the 200 s transfer timeout, before the SYN retries run
	// out at 303 s.
	n, h1, h2 := testNet(6, 10_000_000, 0)
	ok, done := true, false
	var fct sim.Time
	s := NewTCPSender(h1.Host, h2.ID, 1, 20_000)
	s.OnComplete = func(d sim.Time, o bool) { fct, ok, done = d, o, true }
	s.Start()
	n.Eng.RunUntil(1000 * sim.Second)
	if !done || ok {
		t.Fatalf("done=%v ok=%v, want timeout failure", done, ok)
	}
	if fct != 200*sim.Second {
		t.Fatalf("aborted at %v, want 200s", fct)
	}
}

func TestReceiverReassemblesOutOfOrder(t *testing.T) {
	n, _, h2 := testNet(7, 10_000_000, 0)
	_ = n
	r := NewTCPReceiver(h2.Host, 9)
	delivered := 0
	r.OnDeliver = func(b int) { delivered += b }
	mk := func(seq int64, n int32) *packet.Packet {
		return &packet.Packet{
			Src: 0, Dst: h2.ID, Flow: 9, Proto: packet.ProtoTCP,
			Payload: n, Size: n + 92,
			TCP: packet.TCPInfo{Flags: packet.FlagACK, Seq: seq},
		}
	}
	r.Receive(mk(1000, 1000)) // out of order
	if delivered != 0 {
		t.Fatal("delivered out-of-order data")
	}
	r.Receive(mk(0, 1000)) // fills the hole; both deliver
	if delivered != 2000 || r.DeliveredBytes() != 2000 {
		t.Fatalf("delivered %d, want 2000", delivered)
	}
	r.Receive(mk(0, 1000)) // duplicate: no double delivery
	if r.DeliveredBytes() != 2000 {
		t.Fatal("duplicate segment double-delivered")
	}
}

func TestUDPSourceRate(t *testing.T) {
	n, h1, h2 := testNet(8, 100_000_000, 0)
	sink := NewUDPSink(h2.Host, 1)
	u := NewUDPSource(h1.Host, h2.ID, 1, 1_000_000, 1500)
	u.Start()
	n.Eng.RunUntil(10 * sim.Second)
	u.Stop()
	rate := float64(sink.Bytes) * 8 / 10
	if rate < 950_000 || rate > 1_050_000 {
		t.Fatalf("UDP rate = %.0f, want ~1 Mbps", rate)
	}
}

func TestOnOffSourceDutyCycle(t *testing.T) {
	n, h1, h2 := testNet(9, 100_000_000, 0)
	sink := NewUDPSink(h2.Host, 1)
	u := NewUDPSource(h1.Host, h2.ID, 1, 1_000_000, 1500)
	u.OnTime = sim.Second
	u.OffTime = 3 * sim.Second
	u.Start()
	n.Eng.RunUntil(40 * sim.Second)
	u.Stop()
	rate := float64(sink.Bytes) * 8 / 40
	// 25% duty cycle of 1 Mbps.
	if rate < 200_000 || rate > 300_000 {
		t.Fatalf("on-off average rate = %.0f, want ~250 kbps", rate)
	}
}

func TestRequestFlooderEmitsRequests(t *testing.T) {
	n, h1, h2 := testNet(10, 100_000_000, 0)
	var kinds []packet.Kind
	var prios []uint8
	sink := NewUDPSink(h2.Host, 1)
	sink.OnDeliver = func(p *packet.Packet) {
		kinds = append(kinds, p.Kind)
		prios = append(prios, p.Prio)
	}
	f := NewRequestFlooder(h1.Host, h2.ID, 1, 1_000_000, 6)
	f.Start()
	n.Eng.RunUntil(100 * sim.Millisecond)
	f.Stop()
	if len(kinds) == 0 {
		t.Fatal("no request packets delivered")
	}
	for i := range kinds {
		if kinds[i] != packet.KindRequest || prios[i] != 6 {
			t.Fatalf("packet %d: kind=%v prio=%d", i, kinds[i], prios[i])
		}
	}
	// ~1 Mbps of 92 B packets is ~1359 pkt/s; in 100 ms expect ~135.
	if len(kinds) < 100 || len(kinds) > 170 {
		t.Fatalf("flood rate off: %d packets in 100ms", len(kinds))
	}
}

func TestFileClientRepeats(t *testing.T) {
	n, h1, h2 := testNet(11, 10_000_000, 0)
	h2.Host.OnUnknownFlow = func(p *packet.Packet) netsim.Agent {
		return NewTCPReceiver(h2.Host, p.Flow)
	}
	c := NewFileClient(h1.Host, h2.ID, 20_000)
	var fcts []sim.Time
	c.OnResult = func(fct sim.Time, ok bool) {
		if ok {
			fcts = append(fcts, fct)
		}
	}
	c.Start()
	n.Eng.RunUntil(20 * sim.Second)
	c.Stop()
	if c.Completed < 10 {
		t.Fatalf("completed %d transfers in 20s, want many", c.Completed)
	}
	if c.Failed != 0 {
		t.Fatalf("failed %d transfers on a clean path", c.Failed)
	}
}

func TestWebSourceSizesWithinBounds(t *testing.T) {
	n, h1, _ := testNet(12, 10_000_000, 0)
	_ = n
	w := NewWebSource(h1.Host, 3)
	sawTail := false
	for i := 0; i < 5000; i++ {
		s := w.FileSize()
		if s < webMinBytes || s > webMaxBytes {
			t.Fatalf("file size %d out of [%d,%d]", s, webMinBytes, webMaxBytes)
		}
		if s > 60_000 {
			sawTail = true
		}
	}
	if !sawTail {
		t.Fatal("distribution has no heavy tail")
	}
}

func TestWebSourceTransfers(t *testing.T) {
	n, h1, h2 := testNet(13, 10_000_000, 0)
	h2.Host.OnUnknownFlow = func(p *packet.Packet) netsim.Agent {
		return NewTCPReceiver(h2.Host, p.Flow)
	}
	w := NewWebSource(h1.Host, h2.ID)
	w.Start()
	n.Eng.RunUntil(30 * sim.Second)
	w.Stop()
	if w.Completed < 20 {
		t.Fatalf("completed %d web transfers in 30s", w.Completed)
	}
	if w.Failed != 0 {
		t.Fatalf("failed %d web transfers on a clean path", w.Failed)
	}
}

// Property: across random tiny bottleneck buffers and file sizes, TCP
// delivers exactly the file, in order, no duplicates.
func TestTCPReliabilityProperty(t *testing.T) {
	prop := func(seed uint64, kb uint8, qpkts uint8) bool {
		size := int64(kb%64+1) * 1024
		qlim := (int(qpkts%6) + 2) * 1500
		n, h1, h2 := testNet(seed, 1_000_000, qlim)
		r := NewTCPReceiver(h2.Host, 1)
		ok := false
		s := NewTCPSender(h1.Host, h2.ID, 1, size)
		s.OnComplete = func(d sim.Time, o bool) { ok = o }
		s.Start()
		n.Eng.RunUntil(600 * sim.Second)
		return ok && r.DeliveredBytes() == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
