package core

import (
	"slices"
	"testing"
	"unsafe"

	"netfence/internal/cmac"
	"netfence/internal/defense"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
)

// TestSenderSlotLayoutBudget pins the access router's per-sender state
// and the shim's echo stream:
//   - the slot stays within 96 bytes (it replaced a 32-byte request
//     limiter and a map entry per sender);
//   - a rate regulator stays within the 576-byte size class. It is one
//     object where there were six, 600 bytes in their classes: the
//     144-byte regLimiter, the 224-byte LeakyLimiter, the 128-byte
//     Ticker, the cache ring's 64 bytes of first slots, the 24-byte
//     forward closure and the 16-byte adjust method value;
//   - an echo stream, its owned event and what it sends with, stays
//     within the 128-byte class (a closure and a Ticker before).
func TestSenderSlotLayoutBudget(t *testing.T) {
	if n := unsafe.Sizeof(senderSlot{}); n > 96 {
		t.Fatalf("sizeof(senderSlot) = %d, budget 96", n)
	}
	if n := unsafe.Sizeof(regLimiter{}); n > 576 {
		t.Fatalf("sizeof(regLimiter) = %d, budget 576", n)
	}
	if n := unsafe.Sizeof(echoTimer{}); n > 128 {
		t.Fatalf("sizeof(echoTimer) = %d, budget 128", n)
	}
}

// memoRig is one access router with three attached senders of one AS,
// Passport on, and an oracle: every packet the router polices is also
// run through feedback.Validate / StampNop / StampIncr and
// Registry.Stamp directly, and the verdict, the stamped feedback and the
// trailer must agree.
type memoRig struct {
	t   testing.TB
	d   *topo.Graph
	s   *System
	ar  *AccessRouter
	ra  *netsim.Node
	out *netsim.Link // ra's egress: what the limiters forward leaves here

	up    [3]*netsim.Link  // the senders' uplinks
	dsts  [3]packet.NodeID // victim and two colluders
	links [3]packet.LinkID // the bottleneck, a link of ra's own AS, no link

	keys     []*cmac.CMAC // the stamping keys the rig has seen, oldest first
	last     packet.Packet
	lastFrom int
	sent     bool
}

func newMemoRig(t testing.TB) *memoRig { return newMemoRigPassport(t, true) }

func newMemoRigPassport(t testing.TB, passport bool) *memoRig {
	cfg := DefaultConfig()
	cfg.Passport = passport
	cfg.WSec = 2
	cfg.KeyRotate = 4 * sim.Second
	cfg.LimiterIdle = 3 * sim.Second
	eng := sim.New(1)
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		SrcASes: 1, HostsPerAS: 3, ColluderASes: 2,
		BottleneckBps: 1_000_000, EdgeBps: 10_000_000_000, Delay: 10 * sim.Millisecond,
	})
	grp, bn := d.Groups()[0], d.Bottlenecks()[0]
	s := NewSystem(d.Net, cfg)
	s.ProtectLink(bn)
	s.ProtectAccess(grp.Access[0])
	for _, h := range grp.Senders {
		s.AttachHost(h, defense.Policy{})
	}
	r := &memoRig{t: t, d: d, s: s, ra: grp.Access[0]}
	r.ar = s.Access(r.ra)
	r.out = r.ra.LinkTo(bn.From)
	for i, h := range grp.Senders {
		r.up[i] = h.LinkTo(r.ra)
	}
	r.dsts = [3]packet.NodeID{grp.Victim.ID, grp.Colluders[0].ID, grp.Colluders[1].ID}
	r.links = [3]packet.LinkID{bn.ID, r.out.ID, 9999}
	r.out.SetOnTransmit(r.forwarded)
	// Start away from second 0, two rotations in.
	eng.RunUntil(10 * sim.Second)
	cur, prev := r.ar.ring.Keys()
	r.keys = []*cmac.CMAC{prev, cur}
	return r
}

// forwarded checks a packet a limiter cached and released later. It was
// stamped when it left the limiter and may have waited for the egress
// link since, so the second and the key are the packet's own: at most
// one second and one rotation old (rotate flushes the link first).
func (r *memoRig) forwarded(p *packet.Packet, _ *netsim.Link) {
	now := r.d.Net.NowSec()
	if p.FB.TS != now && p.FB.TS+1 != now {
		r.t.Fatalf("forwarded at second %d with ts %d", now, p.FB.TS)
	}
	q := packet.Packet{Src: p.Src, Dst: p.Dst, SrcAS: p.SrcAS, Size: p.Size}
	cur, prev := r.ar.ring.Keys()
	feedback.StampIncr(cur, &q, p.FB.TS, p.FB.Link)
	if q.FB != p.FB {
		feedback.StampIncr(prev, &q, p.FB.TS, p.FB.Link)
	}
	if q.FB != p.FB {
		r.t.Fatalf("forwarded with feedback %+v, StampIncr gives %+v", p.FB, q.FB)
	}
	r.checkTrailer(p, &q)
}

// checkTrailer compares p's Passport trailer with Registry.Stamp's.
func (r *memoRig) checkTrailer(p, q *packet.Packet) {
	r.s.Registry.Stamp(q, r.d.Net.PathASes(nil, r.ra.ID, q.Dst))
	if !p.Passport.Present || p.Passport.Next != 0 || !slices.Equal(p.Passport.Entries, q.Passport.Entries) {
		r.t.Fatalf("trailer %+v, Registry.Stamp gives %+v", *p.Passport, *q.Passport)
	}
}

// send polices p as an arrival on sender from's uplink, in lock-step
// with the oracle.
func (r *memoRig) send(from int, p *packet.Packet) {
	r.last, r.lastFrom, r.sent = *p, from, true
	t, ar := r.t, r.ar
	nowSec := r.d.Net.NowSec()
	q := *p
	regular := p.Kind == packet.KindRegular
	want := feedback.Invalid
	if regular {
		want = feedback.Validate(ar.ring, ar.kaiLookup, &q, nowSec, r.s.Cfg.WSec)
	}
	demoted, limiters := ar.Demoted, ar.LimiterCount()

	passed := r.ra.Ingress(p, r.up[from])

	if got := ar.Demoted - demoted; (got == 1) != (regular && want == feedback.Invalid) {
		t.Fatalf("%+v from %d to %d at second %d: demoted %d times, Validate says %d", q.FB, q.Src, q.Dst, nowSec, got, want)
	}
	if want == feedback.ValidMon {
		if ar.Limiter(q.Src, q.FB.Link) == nil {
			t.Fatalf("no live limiter for (%d, %d) after valid mon feedback", q.Src, q.FB.Link)
		}
	} else if ar.LimiterCount() != limiters {
		t.Fatalf("verdict %d created a limiter", want)
	}
	if want == feedback.ValidNop && !passed {
		t.Fatal("valid nop feedback did not pass")
	}
	if !passed {
		return // dropped, or cached: forwarded sees it leave
	}
	if want == feedback.ValidMon {
		feedback.StampIncr(ar.ring.Current(), &q, nowSec, q.FB.Link)
	} else {
		feedback.StampNop(ar.ring.Current(), &q, nowSec)
	}
	if p.FB != q.FB {
		t.Fatalf("verdict %d from %d to %d at second %d: stamped %+v, want %+v", want, q.Src, q.Dst, nowSec, p.FB, q.FB)
	}
	if (want == feedback.Invalid) != (p.Kind == packet.KindRequest) {
		t.Fatalf("verdict %d left kind %d", want, p.Kind)
	}
	r.checkTrailer(p, &q)
}

// mint builds the feedback a receiver would have returned for a packet
// from src to dst stamped age seconds ago under the ring's key keyAge
// rotations back.
func (r *memoRig) mint(src, dst packet.NodeID, fb, link, keyAge, age int) packet.Feedback {
	ka := r.keys[max(0, len(r.keys)-1-keyAge)]
	ts := r.d.Net.NowSec() - uint32(age)
	if age == 7 {
		ts = r.d.Net.NowSec() + 3 // beyond w, ahead of the clock
	}
	m := packet.Packet{Src: src, Dst: dst}
	switch fb {
	case fbNop:
		feedback.StampNop(ka, &m, ts)
	case fbUp:
		feedback.StampIncr(ka, &m, ts, r.links[link])
	case fbDown:
		feedback.StampNop(ka, &m, ts)
		kai := r.ar.kaiLookup(r.links[link])
		if kai == nil {
			kai = ka
		}
		feedback.StampDecr(kai, &m, r.links[link])
	}
	return feedback.ToPresented(feedback.ToReturned(m.FB))
}

// Feedback a packet op presents, and what is changed after it is minted.
const (
	fbNop = iota
	fbUp
	fbDown
)
const (
	tamperMAC = iota + 1
	tamperDst
	tamperLink
	tamperAction
	tamperTS
	tamperMode
)

// A program is four bytes per op. Byte 0 mod 8 selects the op: 0-3 a
// packet, 4-5 the last packet again, 6 a clock step of b1 | b2<<8 ms,
// 7 a key rotation. A packet is
//
//	b1: uplink (2 bits), claimed source (2), destination (2), request (1),
//	    claims the victim's source AS (1)
//	b2: feedback (2), link (2), key age in rotations (2)
//	b3: feedback age in seconds (3), tamper (3)
func pkt(from, src, dst int, request bool, fb, link, keyAge, age, tamper int) []byte {
	b1 := from | src<<2 | dst<<4
	if request {
		b1 |= 1 << 6
	}
	return []byte{0, byte(b1), byte(fb | link<<2 | keyAge<<4), byte(age | tamper<<3)}
}
func again() []byte      { return []byte{4, 0, 0, 0} }
func step(ms int) []byte { return []byte{6, byte(ms), byte(ms >> 8), 0} }
func rotate() []byte     { return []byte{7, 0, 0, 0} }

func (r *memoRig) run(prog []byte) {
	eng := r.d.Net.Eng
	for ; len(prog) >= 4; prog = prog[4:] {
		b1, b2, b3 := int(prog[1]), int(prog[2]), int(prog[3])
		switch prog[0] % 8 {
		case 4, 5:
			if r.sent {
				p := r.last
				r.send(r.lastFrom, &p)
			}
		case 6:
			eng.RunUntil(eng.Now() + sim.Time(b1|b2<<8)*sim.Millisecond)
		case 7:
			for backlog, _ := r.out.Backlog(); backlog > 0; backlog, _ = r.out.Backlog() {
				eng.RunUntil(eng.Now() + sim.Microsecond)
			}
			r.ar.ring.Rotate()
		default:
			from, src, dst := b1&3%3, b1>>2&3%3, b1>>4&3%3
			fb, link, keyAge := b2&3, b2>>2&3%3, b2>>4&3
			age, tamper := b3&7, b3>>3&7
			h := r.d.Groups()[0].Senders[src]
			p := &packet.Packet{Src: h.ID, SrcAS: h.AS, Dst: r.dsts[dst], Size: 200, Flow: 1}
			if b1>>7 != 0 {
				p.SrcAS = r.d.Groups()[0].Victim.AS
			}
			if b1>>6&1 != 0 {
				p.Kind, p.Prio = packet.KindRequest, uint8(age)
			} else {
				p.Kind = packet.KindRegular
				p.FB = r.mint(p.Src, p.Dst, fb, link, keyAge, age)
			}
			switch tamper {
			case tamperMAC:
				p.FB.MAC[0] ^= 1
			case tamperDst:
				p.Dst = r.dsts[(dst+1)%3]
			case tamperLink:
				p.FB.Link = r.links[(link+1)%3]
			case tamperAction:
				p.FB.Action ^= 1
			case tamperTS:
				p.FB.TS--
			case tamperMode:
				p.FB.Mode ^= 1
			}
			r.send(from, p)
		}
		if cur := r.ar.ring.Current(); cur != r.keys[len(r.keys)-1] {
			r.keys = append(r.keys, cur)
		}
	}
}

func cat(ops ...[]byte) []byte { return slices.Concat(ops...) }

// memoSeeds are the table cases of core_test.go and ext_test.go as
// programs, and for every field of a memo key a program that goes wrong
// if the field is dropped from it: the packet after the change would
// then be answered from the memo.
var memoSeeds = map[string][]byte{
	// TestRequestPolicingAtAccess, TestInvalidFeedbackDemotedToRequest.
	"request then forged L-up": cat(pkt(0, 0, 0, true, 0, 0, 0, 0, 0), pkt(0, 0, 0, false, fbUp, 0, 0, 0, tamperMAC), again()),
	// TestLimiterLifecycle: L-down creates the limiter, Ta of silence
	// removes it, and the next L-down must find a live one.
	"limiter expires under the slot": cat(pkt(0, 0, 0, false, fbDown, 0, 0, 0, 0), step(9000), pkt(0, 0, 0, false, fbDown, 0, 0, 0, 0), again()),
	// TestReplayStaleFeedbackDemoted: w is outside the memo. (The rig
	// rotates at 12 s and 16 s; the feedback goes stale in between.)
	"fresh then stale": cat(step(2500), pkt(0, 0, 0, false, fbNop, 0, 0, 0, 0), again(), step(3000), again(), pkt(0, 0, 0, false, fbNop, 0, 0, 7, 0)),
	// TestReplayAcrossKeyRotationsDemoted: epoch.
	"replay across rotations": cat(pkt(1, 1, 0, false, fbUp, 0, 0, 0, 0), again(), rotate(), again(), rotate(), again(),
		pkt(1, 1, 0, false, fbUp, 0, 1, 0, 0), pkt(1, 1, 0, false, fbUp, 0, 2, 0, 0)),
	"stamps across a rotation": cat(pkt(0, 0, 0, true, 0, 0, 0, 0, 0), rotate(), again(),
		pkt(0, 0, 0, false, fbDown, 1, 0, 0, 0), rotate(), pkt(0, 0, 0, false, fbDown, 1, 0, 0, 0)),
	// dst.
	"right MAC, other destination": cat(pkt(0, 0, 0, false, fbNop, 0, 0, 0, 0), pkt(0, 0, 0, false, fbNop, 0, 0, 0, tamperDst),
		pkt(0, 0, 0, true, 0, 0, 0, 0, 0), pkt(0, 0, 1, true, 0, 0, 0, 0, 0), pkt(0, 0, 0, true, 0, 0, 0, 0, 0)),
	// ts of the presented feedback, and of the stamp.
	"right MAC, other second":     cat(pkt(0, 0, 0, false, fbNop, 0, 0, 1, 0), pkt(0, 0, 0, false, fbNop, 0, 0, 1, tamperTS)),
	"nop stamps across a second":  cat(pkt(0, 0, 0, true, 0, 0, 0, 0, 0), again(), step(1000), again()),
	"L-up stamps across a second": cat(pkt(2, 2, 1, false, fbDown, 1, 0, 0, 0), step(1000), again()),
	// link, of the presented feedback and of the L-up stamp.
	"right MAC, other link": cat(pkt(0, 0, 0, false, fbUp, 0, 0, 0, 0), pkt(0, 0, 0, false, fbUp, 0, 0, 0, tamperLink)),
	"two limiters, one second": cat(pkt(0, 0, 0, false, fbDown, 0, 0, 0, 0), pkt(0, 0, 0, false, fbDown, 1, 0, 0, 0),
		pkt(0, 0, 0, false, fbUp, 2, 0, 0, 0)),
	// MAC, both ways round: a negative verdict is kept too.
	"forged then valid": cat(pkt(0, 0, 0, false, fbDown, 0, 0, 0, tamperMAC), again(), pkt(0, 0, 0, false, fbDown, 0, 0, 0, 0), again(),
		pkt(0, 0, 0, false, fbDown, 0, 0, 0, tamperMAC)),
	// mode and action.
	"right MAC, other mode":   cat(pkt(0, 0, 0, false, fbUp, 0, 0, 0, 0), pkt(0, 0, 0, false, fbUp, 0, 0, 0, tamperMode)),
	"right MAC, other action": cat(pkt(0, 0, 0, false, fbUp, 0, 0, 0, 0), pkt(0, 0, 0, false, fbUp, 0, 0, 0, tamperAction)),
	// The other attached sender's address: its slot, its MACs.
	"spoofed source": cat(pkt(0, 0, 0, false, fbNop, 0, 0, 0, 0), pkt(0, 1, 0, false, fbNop, 0, 0, 0, 0), pkt(1, 1, 0, true, 0, 0, 0, 0, 0),
		pkt(1, 0, 0, false, fbNop, 0, 0, 0, 0), pkt(0, 0, 0, false, fbNop, 0, 0, 0, 0)),
	// A source AS that is not the router's: the trailer is keyed by it.
	"foreign source AS": cat(pkt(0, 0, 0, true, 0, 0, 0, 0, 0), []byte{0, 1<<7 | 1<<6, 0, 0}, again(), pkt(0, 0, 0, true, 0, 0, 0, 0, 0)),
	// A limiter that caches: the later departures pass through forwarded.
	"backlog": cat(pkt(0, 0, 0, false, fbDown, 0, 0, 0, 0), again(), again(), again(), again(), step(900), again(), rotate(), step(2500), again()),
}

// FuzzAccessMemo runs arbitrary programs of packets, clock steps and key
// rotations through one access router and the oracle of memoRig.
func FuzzAccessMemo(f *testing.F) {
	for _, prog := range memoSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4*512 {
			prog = prog[:4*512]
		}
		newMemoRig(t).run(prog)
	})
}

// TestRepeatedPacketCostsCompares: a regular packet whose sender,
// destination and link equal its predecessor's is policed without a Go
// map access — the slot is found by the index on the host's Node, the
// limiter and the Passport path through the slot — and without a MAC but
// the trailer's: the verdict and both stamped tokens are memo hits.
func TestRepeatedPacketCostsCompares(t *testing.T) {
	r := newMemoRig(t)
	for name, prog := range map[string][]byte{
		"nop":    pkt(0, 0, 0, false, fbNop, 0, 0, 1, 0),
		"L-down": pkt(0, 0, 0, false, fbDown, 0, 0, 1, 0),
	} {
		r.run(prog)
		before := r.ar.Stats()
		const n = 5
		for i := 0; i < n; i++ {
			r.run(again())
		}
		st := r.ar.Stats()
		if st.Hashed != before.Hashed {
			t.Errorf("%s: %d map accesses over %d repeated packets, want 0", name, st.Hashed-before.Hashed, n)
		}
		if st.MemoMisses != before.MemoMisses || st.MemoHits == before.MemoHits {
			t.Errorf("%s: memo went %+v -> %+v over %d repeated packets, want hits only", name, before, st, n)
		}
	}
}

// TestRegularPoliceZeroAlloc: policing a regular packet allocates
// nothing, on a memo hit or on a miss.
func TestRegularPoliceZeroAlloc(t *testing.T) {
	r := newMemoRig(t)
	r.run(pkt(0, 0, 0, false, fbNop, 0, 0, 0, 0))
	p := r.last
	fb := [2]packet.Feedback{p.FB, r.mint(p.Src, r.dsts[1], fbNop, 0, 0, 0)}
	for name, dsts := range map[string][2]packet.NodeID{"hit": {r.dsts[0], r.dsts[0]}, "miss": {r.dsts[0], r.dsts[1]}} {
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			i ^= 1
			p.Kind, p.Dst, p.FB = packet.KindRegular, dsts[i], fb[0]
			if dsts[i] != r.dsts[0] {
				p.FB = fb[1]
			}
			if !r.ra.Ingress(&p, r.up[0]) {
				t.Fatal("valid nop feedback did not pass")
			}
		})
		if allocs != 0 {
			t.Errorf("memo %s: policing a regular packet allocates %.1f times, want 0", name, allocs)
		}
	}
}
