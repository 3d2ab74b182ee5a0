package netsim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"netfence/internal/packet"
	"netfence/internal/sim"
)

// fillPacket populates every exported field of p — optional headers,
// a Passport trailer consumed past its first entry, a cached verdict of
// each kind — for a packet bound for dst.
func fillPacket(p *packet.Packet, dst packet.NodeID) {
	p.Src, p.Dst = 7, dst
	p.SrcAS, p.DstAS = 1, 2
	p.Flow = 5
	p.Size, p.Payload = 1500, 1400
	p.Kind, p.Prio, p.Proto = packet.KindRegular, 3, packet.ProtoTCP
	p.TCP = packet.TCPInfo{Flags: packet.FlagACK, Seq: 1000, Ack: 2000}
	p.FB = packet.Feedback{Mode: packet.FBMon, Link: 4, Action: packet.ActDecr, TS: 12,
		MAC: [4]byte{1, 2, 3, 4}, TokenNop: [4]byte{5, 6, 7, 8}}
	p.Ret = packet.Returned{Present: true, Mode: packet.FBMon, Link: 4, Action: packet.ActDecr, TS: 11,
		MAC: [4]byte{9, 8, 7, 6}}
	st := p.NeedPassport()
	st.Present = true
	st.Next = 1
	st.Entries = append(st.Entries[:0],
		packet.PassportMAC{AS: -1, MAC: [4]byte{1, 1, 1, 1}},
		packet.PassportMAC{AS: 2, MAC: [4]byte{2, 2, 2, 2}})
	x := p.NeedExt()
	x.MFB = packet.MultiHeader{Present: true, TS: 12, Token: [4]byte{4, 3, 2, 1},
		Items: []packet.MultiFB{{Link: 4, Action: packet.ActDecr}, {Link: 6, Action: packet.ActIncr}}}
	x.RetMFB = packet.MultiHeader{Present: true, TS: 10, Token: [4]byte{1, 3, 5, 7},
		Items: []packet.MultiFB{{Link: 9, Action: packet.ActDecr}}}
	x.Cap = packet.Capability{Present: true, Dst: dst, Expire: 40}
	x.CapGrant = packet.Capability{Present: true, Dst: 7, Expire: 50}
}

// snapPacket is a copy of p that shares no memory with it: what an
// observer saw of a packet whose struct is recycled afterwards. What a
// recycled struct retains — a zeroed trailer block, a zeroed Ext — reads
// as absent: which struct a packet occupies is not the model's business.
func snapPacket(p *packet.Packet) packet.Packet {
	q := *p
	if p.Passport != nil {
		st := *p.Passport
		st.Entries = append([]packet.PassportMAC(nil), st.Entries...)
		if q.Passport = &st; reflect.DeepEqual(st, packet.PassportStamp{}) {
			q.Passport = nil
		}
	}
	if p.Ext != nil {
		x := *p.Ext
		x.MFB.Items = append([]packet.MultiFB(nil), x.MFB.Items...)
		x.RetMFB.Items = append([]packet.MultiFB(nil), x.RetMFB.Items...)
		if q.Ext = &x; reflect.DeepEqual(x, packet.Ext{}) {
			q.Ext = nil
		}
	}
	return q
}

// TestHandoffPreservesPacket: a packet crosses a cut link by reference.
// What arrives on the destination replica is the very struct the source
// sent — trailer block and Ext travel with it, so nothing can alias —
// equal in every field; the destination allocates nothing and pays for
// the struct with an idle one of its own at its first drain after the
// arrival, an empty the source has not adopted yet is counted idle there,
// and the source adopts it once its clock is a lookahead past the lend.
func TestHandoffPreservesPacket(t *testing.T) {
	a, ah1, _, cut := lineTopo(1_000_000)
	b, _, bh2, bmid := lineTopo(1_000_000)
	mb := NewMailbox(bmid)
	cut.SetMailbox(mb)

	var got *packet.Packet
	var gotStamp *packet.PassportStamp
	var gotEntries *packet.PassportMAC
	var gotExt *packet.Ext
	var seen packet.Packet
	bmid.To.Ingress = func(p *packet.Packet, _ *Link) bool {
		got, gotStamp, gotEntries, gotExt, seen = p, p.Passport, &p.Passport.Entries[0], p.Ext, snapPacket(p)
		return true
	}

	src := ah1.Host.NewPacket()
	fillPacket(src, bh2.ID)
	v := reflect.ValueOf(src).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
			t.Fatalf("fillPacket leaves Packet.%s zero: extend it", f.Name)
		}
	}
	stamp, entries, ext := src.Passport, &src.Passport.Entries[0], src.Ext
	want := snapPacket(src)

	a.Eng.At(5, func() { cut.Send(src) })
	a.Eng.Run()
	if a.Pool.Len() != 0 || a.HandoffStats().Lent != 1 {
		t.Fatalf("the source recycled the struct it lent (idle %d, %+v)", a.Pool.Len(), a.HandoffStats())
	}
	if !mb.Drain(sim.Second) {
		t.Fatal("nothing drained")
	}
	if st := b.HandoffStats(); st.Borrowed != 1 || st.Debt != 1 || b.Eng.Pending() != 1 {
		t.Fatalf("after the first drain: %+v, %d events pending; want one struct borrowed and owed, one event", st, b.Eng.Pending())
	}
	b.Eng.Run()
	if got != src || gotStamp != stamp || gotEntries != entries || gotExt != ext {
		t.Fatal("the arrival is not the struct the source sent, with its trailer block and Ext")
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("arrived packet differs from what was sent:\n got %+v\n     %+v\nwant %+v\n     %+v", seen, seen.Ext, want, want.Ext)
	}
	if b.Pool.News != 0 || b.Pool.Len() != 1 {
		t.Fatalf("the destination allocated %d packets and idles %d; want 0 and the delivered struct", b.Pool.News, b.Pool.Len())
	}

	// The second drain finds the struct idle and sends it home.
	if mb.Drain(2 * sim.Second) {
		t.Fatal("an empty drain reported an arrival")
	}
	if st := b.HandoffStats(); st.SentHome != 1 || st.Debt != 0 || b.Pool.Len() != 0 {
		t.Fatalf("after the second drain: %+v, destination idles %d; want the debt paid", st, b.Pool.Len())
	}
	if idle := uint64(a.Pool.Len()) + a.HandoffStats().Home; idle != a.Pool.News {
		t.Fatalf("a source that never sends again idles %d of the %d structs it allocated", idle, a.Pool.News)
	}
	// Lent at b's clock, the empty is the source's to adopt a lookahead
	// later, not before.
	a.Eng.RunUntil(b.Eng.Now() + mb.lookahead - 1)
	if p := ah1.Host.NewPacket(); p == src || a.Pool.News != 2 {
		t.Fatalf("the source adopted an empty before its clock passed the lend by the lookahead (fresh %d)", a.Pool.News)
	}
	a.Eng.RunUntil(b.Eng.Now() + mb.lookahead)
	if p := ah1.Host.NewPacket(); p != src || a.Pool.News != 2 || a.HandoffStats().Home != 0 {
		t.Fatalf("the source allocated (fresh %d) with an empty of its own at home", a.Pool.News)
	}
}

// hoSide is one engine's view of h1 - r1 - r2 - h2: all of it on the
// single engine, the half it owns on a replica.
type hoSide struct {
	eng      *sim.Engine
	net      *Network
	h1, h2   *Node
	r2       *Node
	fwd, rev *Link // r1 -> r2 and r2 -> r1: the cut
	// orgs key the harness's sends: forward, reverse, local at r2. All
	// sort below every link's origin.
	orgs    [3]sim.Origin
	arrived [2][]hoArrival // at h2, at h1
	// crossed counts the packets that reached the cut's far end: r2 over
	// the forward link, r1 over the reverse one.
	crossed [2]uint64
}

// hoArrival is what a host saw of one packet.
type hoArrival struct {
	At sim.Time
	P  packet.Packet
}

const hoRate = 100_000_000

func newHoSide() *hoSide {
	s := &hoSide{eng: sim.New(1)}
	s.net = New(s.eng)
	n := s.net
	s.h1 = n.NewHost("h1", 1)
	r1 := n.NewNode("r1", 1)
	s.r2 = n.NewNode("r2", 2)
	s.h2 = n.NewHost("h2", 2)
	n.Connect(s.h1, r1, hoRate, sim.Millisecond)
	s.fwd, s.rev = n.Connect(r1, s.r2, hoRate, hoDelays[0])
	n.Connect(s.r2, s.h2, hoRate, sim.Millisecond)
	n.ComputeRoutes()
	for i, end := range []struct {
		node *Node
		cut  packet.LinkID
	}{{s.r2, s.fwd.ID}, {r1, s.rev.ID}} {
		end.node.Ingress = func(_ *packet.Packet, from *Link) bool {
			if from != nil && from.ID == end.cut {
				s.crossed[i]++
			}
			return true
		}
	}
	for i, h := range []*Node{s.h2, s.h1} {
		log := &s.arrived[i]
		sink := agentFunc(func(p *packet.Packet) { *log = append(*log, hoArrival{s.eng.Now(), snapPacket(p)}) })
		h.Host.OnUnknownFlow = func(*packet.Packet) Agent { return sink }
	}
	for i := range s.orgs {
		s.orgs[i] = s.eng.NewOrigin(uint64(i + 1))
	}
	return s
}

// hoState is everything the single engine and the replica pair must
// agree on.
type hoState struct {
	Now               sim.Time
	Executed, Pending uint64
	Tx                [4]uint64 // packets and bytes, forward and reverse
	Arrived           [2][]hoArrival
}

// diff names the first thing two states disagree on, "" when nothing.
func (st hoState) diff(want hoState) string {
	for i := range st.Arrived {
		got, want := st.Arrived[i], want.Arrived[i]
		for j := 0; j < min(len(got), len(want)); j++ {
			if !reflect.DeepEqual(got[j], want[j]) {
				return fmt.Sprintf("arrival %d at host %d\n got %+v %+v\nwant %+v %+v", j, i, got[j], got[j].P.Ext, want[j], want[j].P.Ext)
			}
		}
		if len(got) != len(want) {
			return fmt.Sprintf("%d arrivals at host %d, want %d", len(got), i, len(want))
		}
	}
	st.Arrived, want.Arrived = [2][]hoArrival{}, [2][]hoArrival{}
	if !reflect.DeepEqual(st, want) {
		return fmt.Sprintf("got %+v, want %+v", st, want)
	}
	return ""
}

// hoPair is the partitioned form: replica a owns AS 1, replica b AS 2,
// and the two directions of the middle link are cut. lead says which
// replica runs ahead when both may step (see hoLeadA).
type hoPair struct {
	a, b     *hoSide
	toB, toA *Mailbox
	lead     byte
}

func newHoPair() *hoPair {
	p := &hoPair{a: newHoSide(), b: newHoSide()}
	p.a.eng.SetShardTag(0)
	p.b.eng.SetShardTag(1)
	p.toB, p.toA = NewMailbox(p.b.fwd), NewMailbox(p.a.rev)
	p.a.fwd.SetMailbox(p.toB)
	p.b.rev.SetMailbox(p.toA)
	return p
}

// Which replica steps when both may: a, b, the one behind (lockstep), or
// each in turn.
const (
	hoLeadA = iota
	hoLeadB
	hoLockstep
	hoTakeTurns
)

// hoLookahead is the least delay a cut link ever has: how far one
// replica may run ahead of the other.
var hoLookahead = hoDelays[0]

// advance runs the replicas to to in steps of at most win, as the
// coordinator's workers would with per-shard clocks: a replica steps
// only while its end lies within the lookahead of the other's clock;
// before each step it adopts the empties come home and drains its inbox;
// after each step the replica behind drains what the step handed it, in
// the middle of its own run, as a concurrent Drain would, and then each
// is called. At to both drain once more, as the coordinator does at the
// end of a call.
func (p *hoPair) advance(to, win sim.Time, each func()) {
	sides := [2]*hoSide{p.a, p.b}
	inbox := [2]*Mailbox{p.toA, p.toB}
	turn := 0
	for p.a.eng.Now() < to || p.b.eng.Now() < to {
		x := 0
		switch p.lead {
		case hoLeadB:
			x = 1
		case hoLockstep:
			if p.b.eng.Now() < p.a.eng.Now() {
				x = 1
			}
		case hoTakeTurns:
			x, turn = turn, 1-turn
		}
		end := min(sides[x].eng.Now()+win, to)
		if sides[x].eng.Now() >= to || sides[1-x].eng.Now()+hoLookahead < end {
			x = 1 - x
			end = min(sides[x].eng.Now()+win, to)
		}
		s, y := sides[x], sides[1-x]
		s.net.AdoptEmpties()
		inbox[x].Drain(end)
		s.eng.RunBefore(end)
		inbox[1-x].Drain(min(y.eng.Now()+win, to))
		each()
	}
	p.toB.Drain(to)
	p.toA.Drain(to)
}

// undrained counts the handoffs pushed into mb and not yet drained.
func (mb *Mailbox) undrained() int {
	n, at := 0, mb.readAt
	c := mb.read
	if c == nil {
		c = mb.first.Load()
	}
	for ; c != nil; c, at = c.next.Load(), 0 {
		n += int(c.n.Load()) - at
	}
	return n
}

// state folds the pair into the single engine's terms. An arrival that
// waits in a mailbox or behind a FIFO's head has no event of its own yet
// — the single engine holds one for each — and that is the whole
// difference in the pending counts: a cut link never holds more than one
// event for what is in order.
func (p *hoPair) state() hoState {
	st := hoState{
		Now:      p.a.eng.Now(),
		Executed: p.a.eng.Executed() + p.b.eng.Executed(),
		Pending:  uint64(p.a.eng.Pending() + p.b.eng.Pending()),
		Tx:       [4]uint64{p.a.fwd.TxPackets, p.a.fwd.TxBytes, p.b.rev.TxPackets, p.b.rev.TxBytes},
		Arrived:  [2][]hoArrival{p.b.arrived[0], p.a.arrived[1]},
	}
	for _, mb := range []*Mailbox{p.toB, p.toA} {
		st.Pending += uint64(mb.undrained() + mb.queued)
		if mb.ev.Pending() {
			st.Pending--
		}
	}
	return st
}

// books holds each direction's handoff books at any point of a run:
// every struct lent was borrowed or waits in the mailbox; every one
// borrowed has reached the cut's far end or is still to — in the FIFO,
// or under a keyed event of its own, of which there are at most as many
// as were ever injected; and the destination's debt is exactly what it
// owes for the arrivals that fired plus the arrivals to come, so an
// arrival left unpaid shows at once. With drained set nothing is still
// to arrive, and the debt is the arrivals owed.
func (p *hoPair) books(t *testing.T, when string, drained bool) {
	t.Helper()
	for _, d := range []struct {
		src, dst *hoSide
		mb       *Mailbox
		crossed  uint64
	}{{p.a, p.b, p.toB, p.b.crossed[0]}, {p.b, p.a, p.toA, p.a.crossed[1]}} {
		out, in := d.src.net.HandoffStats(), d.dst.net.HandoffStats()
		toCome := int64(in.Borrowed) - int64(d.crossed)
		keyed := toCome - int64(d.mb.queued) // keyed events not yet fired
		if out.Lent != in.Borrowed+uint64(d.mb.undrained()) || int64(in.Debt) != int64(d.mb.owed)+toCome ||
			keyed < 0 || keyed > int64(in.Keyed) || drained && toCome != 0 {
			t.Fatalf("%s: handoff books: source %+v, destination %+v, %d undrained, %d crossed, %d owed, %d queued",
				when, out, in, d.mb.undrained(), d.crossed, d.mb.owed, d.mb.queued)
		}
	}
}

func (s *hoSide) state() hoState {
	return hoState{Now: s.eng.Now(), Executed: s.eng.Executed(), Pending: uint64(s.eng.Pending()),
		Tx:      [4]uint64{s.fwd.TxPackets, s.fwd.TxBytes, s.rev.TxPackets, s.rev.TxBytes},
		Arrived: s.arrived}
}

// Program steps are three bytes: op, b1, b2. Every step first advances
// the clock, in steps of a window, by (b2&15) quarters of the previous
// packet's transmit time plus b2>>4 nanoseconds, and acts there — where
// both replicas have arrived, as at a control point.
const (
	hoFwd    = 0 // 0–1: h1 sends 40+6*b1 bytes to h2; op bit 3: Passport trailer; bit 4: Ext
	hoRev    = 2 // h2 sends to h1, same flags
	hoLocal  = 3 // r2 forwards a packet of its own to h2 at the instant the last forward send reaches r2 over an idle path
	hoDelay  = 4 // SetDelay(hoDelays[b1&3]) on the forward cut link (b1 bit 2: the reverse one)
	hoWindow = 5 // windows are hoWindows[b1&3] long from here on, and b1>>2&3 says who leads (hoLeadA...)
	hoIdle   = 6 // nothing; the gap is taken 1+b1&15 times
	hoBurst  = 7 // 1+b1&31 forward sends of 1,500 B at once
)

const (
	hoTrailer = 1 << 3
	hoExt     = 1 << 4
)

var (
	// Every window length is a lookahead: at most the least delay.
	hoDelays  = [4]sim.Time{2 * sim.Millisecond, 3 * sim.Millisecond, 7 * sim.Millisecond, 20 * sim.Millisecond}
	hoWindows = [4]sim.Time{2 * sim.Millisecond, sim.Millisecond, 500 * sim.Microsecond, 250 * sim.Microsecond}
)

func hoStep(op, b1, b2 byte) []byte { return []byte{op, b1, b2} }

// hoPkt is a send of size bytes, quarters of a transmit time after the
// previous step.
func hoPkt(op byte, size, quarters int) []byte {
	return hoStep(op, byte((size-40)/6), byte(quarters))
}

// hoPingPong is n rounds of a full-size packet forward and an ACK-size
// one back.
func hoPingPong(n int) []byte {
	return bytes.Repeat(bytes.Join([][]byte{hoPkt(hoFwd|hoTrailer, 1500, 2), hoPkt(hoRev|hoExt, 92, 1)}, nil), n)
}

// hoSeeds are the named programs of FuzzMailboxHandoff's corpus.
var hoSeeds = map[string][]byte{
	"single": hoPkt(hoFwd|hoTrailer|hoExt, 1500, 0),
	// 31 packets take 3.7 ms to transmit: two windows' worth and more.
	"burst-deeper-than-a-window": bytes.Join([][]byte{hoStep(hoBurst, 30, 0), hoPkt(hoFwd, 40, 0)}, nil),
	// A 20 ms link under 250 µs windows holds eighty of them.
	"windows-pending-at-once": bytes.Join([][]byte{hoStep(hoDelay, 3, 0), hoStep(hoWindow, 3, 0),
		bytes.Repeat(hoPkt(hoFwd|hoTrailer, 1000, 6), 12), hoStep(hoIdle, 15, 15), hoStep(hoBurst, 7, 0)}, nil),
	// Over idle links a 1,000 B packet reaches r2 two transmit times of
	// 80 µs and 3 ms after it is sent; the step 160 µs later moves the
	// grid of 250 µs windows so that the 12th ends at that very instant.
	"arrival-at-window-end": bytes.Join([][]byte{hoStep(hoWindow, 3, 0), hoPkt(hoFwd, 1000, 0),
		hoStep(hoIdle, 0, 8), hoPkt(hoRev, 1000, 0)}, nil),
	// Arrivals minted under 20 ms wait in the FIFO when the delay drops
	// to 2 ms: the next ones overtake them.
	"delay-lowered-with-arrivals-pending": bytes.Join([][]byte{hoStep(hoDelay, 3, 0), hoStep(hoBurst, 5, 0),
		hoStep(hoIdle, 3, 15), hoStep(hoDelay, 0, 0), hoStep(hoBurst, 3, 0), hoPkt(hoFwd|hoExt, 700, 9),
		hoStep(hoDelay, 2, 3), hoStep(hoBurst, 2, 0), hoStep(hoDelay, 1, 9), hoPkt(hoFwd, 100, 0)}, nil),
	// Empties owed both ways; after 7 ms of quiet each side sends again
	// with its free list empty and empties of its own at home.
	"ping-pong": bytes.Join([][]byte{hoPingPong(6), hoPkt(hoFwd, 1500, 0), hoStep(hoIdle, 15, 15), hoPingPong(3),
		hoStep(hoBurst, 4, 0), hoPkt(hoRev, 1500, 0), hoStep(hoIdle, 15, 15), hoPingPong(2),
		hoStep(hoDelay, 4|3, 40), hoPkt(hoRev, 40, 0), hoStep(hoDelay, 4|0, 40), hoPkt(hoRev, 40, 0), hoPkt(hoRev, 40, 0)}, nil),
	// b runs ahead and drains a's pushes while a is still sending; the
	// empties b owes a wait on b's clock, not a's.
	"b-leads": bytes.Join([][]byte{hoStep(hoWindow, hoLeadB<<2, 0), hoPingPong(6), hoStep(hoIdle, 15, 15),
		hoStep(hoBurst, 20, 0), hoStep(hoIdle, 15, 15), hoPingPong(3)}, nil),
	// The replicas lead in turn under short windows, with a burst
	// deeper than a chunk of handoffs in flight.
	"turns-deeper-than-a-chunk": bytes.Join([][]byte{hoStep(hoWindow, 2|hoTakeTurns<<2, 0), hoStep(hoDelay, 3, 0),
		bytes.Repeat(hoStep(hoBurst, 31, 0), 5), hoStep(hoIdle, 15, 15), hoPingPong(4)}, nil),
	// Lockstep, with the delay lowered under arrivals pending.
	"lockstep-delay-lowered": bytes.Join([][]byte{hoStep(hoWindow, 1|hoLockstep<<2, 0), hoStep(hoDelay, 3, 0),
		hoStep(hoBurst, 5, 0), hoStep(hoIdle, 3, 15), hoStep(hoDelay, 0, 0), hoStep(hoBurst, 3, 0)}, nil),
	// r2's own packet and a handoff reach r2's egress at one instant:
	// the handoff's minted key, not the draining engine's, says who
	// goes first.
	"tie-at-the-far-end": bytes.Join([][]byte{hoPkt(hoFwd, 1000, 0), hoPkt(hoLocal, 400, 0),
		hoPkt(hoFwd, 400, 4), hoPkt(hoLocal, 1000, 0), hoStep(hoBurst, 2, 1), hoPkt(hoLocal, 40, 0)}, nil),
}

// runHandoffProgram drives prog into the replica pair, step by step as
// the sharded executor does (one replica up to a lookahead ahead of the
// other, Drains interleaved with the other's pushes), and into the same
// hops on one engine. It holds the pair's books and struct conservation
// after every replica step, the pair to the single engine's observable
// behaviour at every program step and wherever the two replicas' clocks
// meet, and all of it once everything has drained.
func runHandoffProgram(t *testing.T, prog []byte) {
	one, two := newHoSide(), newHoPair()
	now, win := sim.Time(0), hoWindows[0]
	sent, prevSize, uid := 0, 0, uint64(0) // sent counts what the pair has drawn from its pools
	lastFwd, lastSize := sim.Time(0), 0
	// conserve: every packet either pool allocated is in flight or idle
	// — on a free list or an empty on its way home.
	conserve := func(when string) {
		t.Helper()
		fresh := two.a.net.Pool.News + two.b.net.Pool.News
		idle := two.a.net.Pool.Len() + two.b.net.Pool.Len() + int(two.a.net.HandoffStats().Home+two.b.net.HandoffStats().Home)
		if flying := sent - len(two.b.arrived[0]) - len(two.a.arrived[1]); int(fresh) != idle+flying {
			t.Fatalf("%s: %d structs allocated, %d idle, %d in flight", when, fresh, idle, flying)
		}
	}
	agree := func(when string, drained bool) {
		t.Helper()
		if d := two.state().diff(one.state()); d != "" {
			t.Fatalf("%s: the replica pair and the single engine differ: %s", when, d)
		}
		two.books(t, when, drained)
		conserve(when)
	}
	advance := func(to sim.Time, when string) {
		t.Helper()
		if now >= to {
			return
		}
		now = to
		two.advance(now, win, func() {
			t.Helper()
			two.books(t, when, false)
			conserve(when)
			if at := two.a.eng.Now(); at == two.b.eng.Now() && at > one.eng.Now() && at < now {
				one.eng.RunBefore(at)
				agree(fmt.Sprintf("%s, clocks meeting at %d", when, at), false)
			}
		})
		one.eng.RunBefore(now)
		agree(fmt.Sprintf("%s, at %d", when, now), false)
	}
	// send schedules, on the engine owning the node, a packet entering
	// the network there.
	send := func(s *hoSide, which int, at sim.Time, uid uint64, size int, flags byte) {
		from, dst := s.h1, s.h2
		switch which {
		case 1:
			from, dst = s.h2, s.h1
		case 2:
			from = s.r2
		}
		s.orgs[which].At(at, func() {
			p := dst.Host.NewPacket() // any host draws from the network's pool
			if s != one {
				sent++
			}
			p.Src, p.Dst, p.Flow, p.Size = from.ID, dst.ID, packet.FlowID(uid), int32(size)
			if flags&hoTrailer != 0 {
				st := p.NeedPassport()
				st.Present = true
				st.Entries = append(st.Entries, packet.PassportMAC{AS: 2, MAC: [4]byte{byte(uid), 1, 2, 3}})
			}
			if flags&hoExt != 0 {
				p.NeedExt().MFB = packet.MultiHeader{Present: true, Items: []packet.MultiFB{{Link: packet.LinkID(uid)}}}
			}
			s.net.Forward(from, p)
		})
	}
	for i := 0; i+3 <= len(prog); i += 3 {
		op, b1, b2 := prog[i], prog[i+1], prog[i+2]
		gap := sim.TxTime(prevSize, hoRate)*sim.Time(b2&15)/4 + sim.Time(b2>>4)
		if op&7 == hoIdle {
			gap *= 1 + sim.Time(b1&15)
		}
		when := fmt.Sprintf("step %d (% x)", i/3, prog[i:i+3])
		advance(now+gap, when)
		size, count, which, at := 40+6*int(b1), 1, 0, now
		switch op & 7 {
		case hoDelay:
			for _, s := range []*hoSide{one, two.a, two.b} {
				if l := s.fwd; b1&4 == 0 {
					l.SetDelay(hoDelays[b1&3])
				} else {
					s.rev.SetDelay(hoDelays[b1&3])
				}
			}
			continue
		case hoWindow:
			win, two.lead = hoWindows[b1&3], b1>>2&3
			continue
		case hoIdle:
			continue
		case hoRev:
			which = 1
		case hoLocal:
			which = 2
			at = max(now, lastFwd+2*sim.TxTime(lastSize, hoRate)+sim.Millisecond+one.fwd.Delay)
		case hoBurst:
			size, count = 1500, 1+int(b1&31)
		}
		owner := two.a
		if which != 0 {
			owner = two.b
		}
		for ; count > 0; count-- {
			uid++
			send(one, which, at, uid, size, op)
			send(owner, which, at, uid, size, op)
		}
		if which == 0 {
			lastFwd, lastSize = now, size
		}
		prevSize = size
	}
	// Drain: windows until nothing is pending anywhere.
	for i := 0; one.eng.Pending() > 0; i++ {
		if i == 1000 {
			t.Fatalf("not drained after 1000 windows: %d events pending", one.eng.Pending())
		}
		advance(now+hoDelays[3], "drained")
	}
	agree("drained", true)
	// Every struct ever allocated is now idle, once: in a pool, or an
	// empty its home has yet to adopt.
	seen := map[*packet.Packet]bool{}
	for _, d := range []struct {
		s  *hoSide
		mb *Mailbox
	}{{two.a, two.toB}, {two.b, two.toA}} {
		pool := &d.s.net.Pool
		d.mb.adopt(pool, math.MaxInt64)
		for pool.Len() > 0 {
			p := pool.Get()
			if seen[p] {
				t.Fatalf("struct %p is idle in two places", p)
			}
			seen[p] = true
		}
	}
	if fresh := two.a.net.Pool.News + two.b.net.Pool.News; len(seen) != int(fresh) {
		t.Fatalf("%d structs idle after the run, %d allocated", len(seen), fresh)
	}
}

// FuzzMailboxHandoff is the differential oracle of the by-reference
// handoff: whatever the program — sizes, trailers and Ext blocks, gaps
// down to the nanosecond, window lengths, which replica runs ahead and
// drains while the other pushes, the cut link's delay raised and
// lowered with arrivals pending, traffic both ways — arrival
// instants and order, every field of every arrived packet, the executed
// and pending event counts and the cut links' transmit counters are the
// single engine's, the books of lent, borrowed, sent home and owed
// balance, and no struct is lost, duplicated or in two places.
func FuzzMailboxHandoff(f *testing.F) {
	for _, prog := range hoSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*128 {
			prog = prog[:3*128]
		}
		runHandoffProgram(t, prog)
	})
}
