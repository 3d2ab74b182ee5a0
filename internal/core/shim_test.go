package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"unsafe"

	"netfence/internal/defense"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
)

// TestHostShimLayoutBudget pins the shim every NetFence host carries —
// the first peer's state inline, the table for further peers, the
// inline SYN clock and the echo origin behind a pointer — inside the
// 160-byte malloc size class.
func TestHostShimLayoutBudget(t *testing.T) {
	if n := unsafe.Sizeof(HostShim{}); n > 160 {
		t.Fatalf("sizeof(HostShim) = %d, budget 160", n)
	}
	if n := unsafe.Sizeof(peerState{}); n > 88 {
		t.Errorf("sizeof(peerState) = %d, budget 88", n)
	}
}

// peerView renders every field of one peer's state by value (the echo
// ticker by presence), or "none".
func peerView(ps *peerState) string {
	if ps == nil {
		return "none"
	}
	multi := "nil"
	if m := ps.multi; m != nil {
		multi = fmt.Sprintf("%+v", *m)
	}
	return fmt.Sprintf("presented %+v/%v toReturn %+v multi %s sent %d heard %d flow %d echo %v reqSince %d/%v",
		ps.presented, ps.hasPresented, ps.toReturn, multi, ps.lastSent, ps.lastHeard, ps.lastFlow,
		ps.echo != nil, ps.reqSince, ps.hasReqSince)
}

// lookupPeer returns the shim's state for id without creating it.
func lookupPeer(sh *HostShim, id packet.NodeID) *peerState {
	if id == sh.firstID {
		return &sh.first
	}
	return sh.rest[id]
}

// shimTable is one star network: the shim under test on host main, one
// reference shim per peer (each sees only that peer's packets, so its
// state for the peer is its inline first entry), and the peers.
type shimTable struct {
	eng   *sim.Engine
	main  *HostShim
	ref   map[packet.NodeID]*peerState
	refSh map[packet.NodeID]*HostShim
	peers []packet.NodeID
}

func newShimTable(cfg Config, peers int) *shimTable {
	eng := sim.New(1)
	net := netsim.New(eng)
	hub := net.NewNode("hub", 1)
	mk := func(name string) *netsim.Node {
		h := net.NewHost(name, 1)
		net.Connect(h, hub, 100_000_000, sim.Millisecond)
		return h
	}
	mainHost := mk("main")
	refHosts := make([]*netsim.Node, peers)
	tb := &shimTable{eng: eng, ref: map[packet.NodeID]*peerState{}, refSh: map[packet.NodeID]*HostShim{}}
	for i := range refHosts {
		refHosts[i] = mk("ref")
		tb.peers = append(tb.peers, mk("peer").ID)
	}
	net.ComputeRoutes()
	sys := NewSystem(net, cfg)
	// With three peers or more, the last is unwanted traffic everywhere.
	denied := packet.NodeID(-1)
	if peers >= 3 {
		denied = tb.peers[peers-1]
	}
	pol := defense.Policy{Deny: func(src packet.NodeID) bool { return src == denied }}
	sys.AttachHost(mainHost, pol)
	tb.main = Shim(mainHost)
	for i, id := range tb.peers {
		sys.AttachHost(refHosts[i], pol)
		tb.refSh[id] = Shim(refHosts[i])
		tb.ref[id] = &tb.refSh[id].first
	}
	return tb
}

// randomPacket draws a packet of flow: SYNs, data and strategic
// requests on the way out; TCP, UDP and feedback packets carrying fresh,
// stale, nop and mon feedback (in either header format) on the way in.
func randomPacket(rng *rand.Rand, nowSec uint32, flow packet.FlowID) *packet.Packet {
	p := &packet.Packet{Flow: flow, Proto: packet.ProtoTCP, Kind: packet.KindRegular, Size: 1500, Payload: 1408}
	switch rng.IntN(4) {
	case 0:
		p.TCP.Flags = packet.FlagSYN
		p.Payload = 0
	case 1:
		p.Proto = packet.ProtoUDP
	case 2:
		p.Proto = packet.ProtoFeedback
		p.Payload = 0
	}
	if rng.IntN(8) == 0 {
		p.Kind, p.Prio = packet.KindRequest, uint8(1+rng.IntN(5))
	}
	fb := func() packet.Feedback {
		f := packet.Feedback{TS: nowSec - uint32(rng.IntN(min(int(nowSec)+1, 8))), Link: packet.LinkID(rng.IntN(3))}
		if rng.IntN(2) == 0 {
			f.Mode = packet.FBMon
			f.Action = packet.FBAction(rng.IntN(2))
		}
		return f
	}
	if rng.IntN(3) > 0 {
		p.FB = fb()
	}
	if rng.IntN(2) == 0 {
		r := fb()
		p.Ret = packet.Returned{Present: true, Link: r.Link, TS: r.TS, Mode: r.Mode, Action: r.Action}
	}
	if rng.IntN(2) == 0 {
		x := p.NeedExt()
		x.MFB = packet.MultiHeader{Present: rng.IntN(2) == 0, TS: fb().TS}
		x.RetMFB = packet.MultiHeader{Present: rng.IntN(2) == 0, TS: fb().TS}
	}
	return p
}

// packetView renders a packet by value, its Ext included.
func packetView(p *packet.Packet) string {
	q, ext := *p, "nil"
	if q.Ext != nil {
		ext = fmt.Sprintf("%+v", *q.Ext)
		q.Ext = nil
	}
	return fmt.Sprintf("%+v ext %s", q, ext)
}

// TestShimPeerTableProperty drives the shim with random Egress/Ingress
// sequences over one to five peers, with the clock advanced in between
// (echo timers fire and send through the shim), and holds every peer's
// state, Presented and every decorated packet to a reference that keeps
// each peer in a shim of its own.
func TestShimPeerTableProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 29))
	for _, multi := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.MultiFeedback = multi
		for round := 0; round < 40; round++ {
			tb := newShimTable(cfg, 1+round%5)
			for step := 0; step < 150; step++ {
				k := rng.IntN(len(tb.peers))
				peer := tb.peers[k]
				flow := packet.FlowID(10*k + rng.IntN(2)) // flows are per peer: the SYN clock is per flow
				nowSec := uint32(tb.eng.Now() / sim.Second)
				where := fmt.Sprintf("multi %v round %d step %d", multi, round, step)
				switch rng.IntN(5) {
				case 0, 1:
					a := randomPacket(rng, nowSec, flow)
					a.Dst = peer
					b := *a
					if a.Ext != nil {
						ext := *a.Ext
						b.Ext = &ext
					}
					tb.main.Egress(a)
					tb.refSh[peer].Egress(&b)
					if ga, gb := packetView(a), packetView(&b); ga != gb {
						t.Fatalf("%s: Egress to %d decorates\n%s\nreference\n%s", where, peer, ga, gb)
					}
				case 2, 3:
					a := randomPacket(rng, nowSec, flow)
					a.Src = peer
					b := *a
					if ra, rb := tb.main.Ingress(a), tb.refSh[peer].Ingress(&b); ra != rb {
						t.Fatalf("%s: Ingress from %d = %v, reference %v", where, peer, ra, rb)
					}
				case 4:
					tb.eng.RunUntil(tb.eng.Now() + sim.Time(rng.IntN(3000))*sim.Millisecond)
				}
				seen := 0
				for _, id := range tb.peers {
					got, want := lookupPeer(tb.main, id), tb.ref[id]
					if tb.refSh[id].firstID < 0 {
						want = nil // the reference never saw this peer
					} else {
						seen++
					}
					if g, w := peerView(got), peerView(want); g != w {
						t.Fatalf("%s: peer %d\n got %s\nwant %s", where, id, g, w)
					}
					fa, oka := tb.main.Presented(id)
					fb, okb := tb.refSh[id].Presented(id)
					if fa != fb || oka != okb {
						t.Fatalf("%s: Presented(%d) = %+v,%v, reference %+v,%v", where, id, fa, oka, fb, okb)
					}
				}
				if n := len(tb.main.rest); tb.main.firstID >= 0 && n+1 != seen || tb.main.firstID < 0 && seen != 0 {
					t.Fatalf("%s: table holds first %d + %d, %d peers seen", where, tb.main.firstID, n, seen)
				}
			}
		}
	}
}

// TestShimLateEchoOrigin: the shim reserves its echo origin's ordinal at
// attach and makes the origin only on the first echo — which then has
// the ID the eager NewOrigin would have returned at attach — while an
// agent attached after the shim keeps the ordinal it always had. Every
// later echo shares that one origin.
func TestShimLateEchoOrigin(t *testing.T) {
	id := func(o sim.Origin) uint64 { return o.HandoffKey(0).Origin }
	twin := netsim.New(sim.New(1)).NewHost("h", 1)
	wantShim, wantAgent := id(twin.NewOrigin()), id(twin.NewOrigin())

	eng := sim.New(1)
	net := netsim.New(eng)
	h, peer, other := net.NewHost("h", 1), net.NewHost("peer", 1), net.NewHost("other", 1)
	NewSystem(net, DefaultConfig()).AttachHost(h, defense.Policy{})
	if got := id(h.NewOrigin()); got != wantAgent {
		t.Errorf("agent attached after the shim: origin %#x, want %#x", got, wantAgent)
	}
	sh := Shim(h)
	if sh.echoOrg != nil {
		t.Fatal("the shim made its echo origin before any echo")
	}
	eng.RunUntil(5 * sim.Second)
	sh.Ingress(&packet.Packet{Src: peer.ID, Flow: 1, Proto: packet.ProtoUDP, Payload: 100, Size: 200})
	if sh.echoOrg == nil || sh.first.echo == nil {
		t.Fatal("a one-way packet started no echo")
	}
	if got := id(*sh.echoOrg); got != wantShim {
		t.Errorf("late echo origin %#x, want %#x", got, wantShim)
	}
	// A second peer's echo keys from the same origin, continuing its
	// sequence.
	org := sh.echoOrg
	sh.Ingress(&packet.Packet{Src: other.ID, Flow: 2, Proto: packet.ProtoUDP, Payload: 100, Size: 200})
	if sh.echoOrg != org || sh.rest[other.ID] == nil || sh.rest[other.ID].echo == nil {
		t.Error("the second peer's echo did not start from the shim's one echo origin")
	}
}

// TestShimEchoIdlesAndRestarts: a peer's echo stream stops once the peer
// has been silent for eight intervals, leaving nothing scheduled, and the
// next one-way packet from the peer starts a new one from the shim's one
// echo origin.
func TestShimEchoIdlesAndRestarts(t *testing.T) {
	cfg := DefaultConfig()
	d, _ := deploy(9, topo.DefaultDumbbell(2, 1_000_000), cfg)
	grp := d.Groups()[0]
	eng := d.Net.Eng
	sh := Shim(grp.Victim)
	pending := eng.Pending()
	oneWay := func() {
		sh.Ingress(&packet.Packet{Src: grp.Senders[0].ID, Flow: 1, Proto: packet.ProtoUDP, Payload: 100, Size: 200})
	}
	oneWay()
	e, org := sh.first.echo, sh.echoOrg
	if e == nil || !e.ev.Pending() || eng.Pending() != pending+1 {
		t.Fatal("a one-way packet started no echo")
	}
	eng.RunUntil(eng.Now() + 8*echoInterval)
	if sh.first.echo != e || !e.ev.Pending() {
		t.Fatal("the echo stopped before the peer was silent for eight intervals")
	}
	eng.RunUntil(eng.Now() + echoInterval)
	if sh.first.echo != nil || e.ev.Pending() || eng.Pending() != pending {
		t.Fatalf("after eight silent intervals: echo %p, its event pending %v, %d events pending, want none beyond %d",
			sh.first.echo, e.ev.Pending(), eng.Pending(), pending)
	}
	oneWay()
	if sh.first.echo == nil || !sh.first.echo.ev.Pending() || sh.echoOrg != org {
		t.Fatal("the next one-way packet did not restart the echo from the shim's echo origin")
	}
}
