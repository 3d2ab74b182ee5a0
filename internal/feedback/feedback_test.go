package feedback

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netfence/internal/cmac"
	"netfence/internal/packet"
)

func testKeys() (*KeyRing, *cmac.CMAC) {
	var ka, kai cmac.Key
	ka[0], kai[0] = 1, 2
	return NewKeyRingFromKey(ka), cmac.New(kai)
}

func kaiAlways(k *cmac.CMAC) KaiLookup {
	return func(packet.LinkID) *cmac.CMAC { return k }
}

func newPkt(src, dst packet.NodeID) *packet.Packet {
	return &packet.Packet{Src: src, Dst: dst, Kind: packet.KindRegular, Size: 1500}
}

const w = 4 // feedback expiration in seconds, Figure 3

func TestNopRoundTrip(t *testing.T) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	StampNop(ring.Current(), p, 100)
	if !p.FB.IsNop() {
		t.Fatal("stamped feedback is not nop")
	}
	if got := Validate(ring, kaiAlways(kai), p, 100, w); got != ValidNop {
		t.Fatalf("Validate = %v, want ValidNop", got)
	}
	// Fresh within w on either side.
	if got := Validate(ring, kaiAlways(kai), p, 104, w); got != ValidNop {
		t.Fatalf("Validate at ts+w = %v, want ValidNop", got)
	}
	if got := Validate(ring, kaiAlways(kai), p, 105, w); got != Invalid {
		t.Fatalf("Validate at ts+w+1 = %v, want Invalid (expired)", got)
	}
}

func TestIncrRoundTrip(t *testing.T) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	const link packet.LinkID = 7
	StampIncr(ring.Current(), p, 200, link)
	if !p.FB.IsMon() || p.FB.Action != packet.ActIncr || p.FB.Link != link {
		t.Fatalf("bad stamp: %+v", p.FB)
	}
	if p.FB.TokenNop != NopMAC(ring.Current(), 10, 20, 200) {
		t.Fatal("TokenNop not refilled by StampIncr")
	}
	if got := Validate(ring, kaiAlways(kai), p, 201, w); got != ValidMon {
		t.Fatalf("Validate = %v, want ValidMon", got)
	}
}

func TestDecrFromNop(t *testing.T) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	StampNop(ring.Current(), p, 300)
	StampDecr(kai, p, 9)
	if p.FB.Action != packet.ActDecr || p.FB.Link != 9 || p.FB.TS != 300 {
		t.Fatalf("bad decr stamp: %+v", p.FB)
	}
	if p.FB.TokenNop != ([4]byte{}) {
		t.Fatal("token_nop not erased after L-down stamp")
	}
	if got := Validate(ring, kaiAlways(kai), p, 301, w); got != ValidMon {
		t.Fatalf("Validate = %v, want ValidMon", got)
	}
}

func TestDecrFromIncr(t *testing.T) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	StampIncr(ring.Current(), p, 300, 9)
	StampDecr(kai, p, 9)
	if got := Validate(ring, kaiAlways(kai), p, 302, w); got != ValidMon {
		t.Fatalf("Validate = %v, want ValidMon", got)
	}
}

func TestForgeryRejected(t *testing.T) {
	ring, kai := testKeys()
	lookup := kaiAlways(kai)

	// A sender inventing incr feedback without the key fails.
	p := newPkt(10, 20)
	p.FB = packet.Feedback{Mode: packet.FBMon, Link: 9, Action: packet.ActIncr, TS: 100}
	if got := Validate(ring, lookup, p, 100, w); got != Invalid {
		t.Fatalf("forged incr accepted: %v", got)
	}

	// Tampering any field of valid feedback invalidates it.
	StampIncr(ring.Current(), p, 100, 9)
	cases := []func(q *packet.Packet){
		func(q *packet.Packet) { q.FB.Link = 10 },
		func(q *packet.Packet) { q.FB.TS++ },
		func(q *packet.Packet) { q.FB.Action = packet.ActDecr },
		func(q *packet.Packet) { q.FB.MAC[0] ^= 1 },
		func(q *packet.Packet) { q.Src++ },
		func(q *packet.Packet) { q.Dst++ },
	}
	for i, mutate := range cases {
		q := *p
		mutate(&q)
		if got := Validate(ring, lookup, &q, 100, w); got != Invalid {
			t.Errorf("case %d: tampered feedback accepted: %v", i, got)
		}
	}
}

// TestDecrHideUpgradeRejected: a malicious receiver cannot "upgrade"
// L-down feedback to L-up by flipping the action bit, because incr and
// decr use different MAC constructions and keys.
func TestDecrHideUpgradeRejected(t *testing.T) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	StampNop(ring.Current(), p, 100)
	StampDecr(kai, p, 9)
	p.FB.Action = packet.ActIncr
	if got := Validate(ring, kaiAlways(kai), p, 100, w); got != Invalid {
		t.Fatalf("action-flipped decr accepted: %v", got)
	}
}

// TestReplayOnOtherConnection: feedback is bound to (src, dst) and cannot
// be reused by a different sender or toward a different destination.
func TestReplayOnOtherConnection(t *testing.T) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	StampIncr(ring.Current(), p, 100, 9)
	q := *p
	q.Src = 11 // different sender presents the same feedback
	if got := Validate(ring, kaiAlways(kai), &q, 100, w); got != Invalid {
		t.Fatalf("cross-sender replay accepted: %v", got)
	}
	r := *p
	r.Dst = 21
	if got := Validate(ring, kaiAlways(kai), &r, 100, w); got != Invalid {
		t.Fatalf("cross-destination replay accepted: %v", got)
	}
}

// TestMaliciousDownstreamCannotRestamp: after a bottleneck stamps L-down
// and erases token_nop, a downstream router (which knows Kai but not the
// erased token) cannot replace the feedback with valid L-down for its own
// link while preserving validity of a forged token_nop path. We model the
// attack as restamping with a zero token_nop.
func TestMaliciousDownstreamCannotRestamp(t *testing.T) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	StampNop(ring.Current(), p, 100)
	StampDecr(kai, p, 9)
	// Downstream router overwrites with its own link using the (now-zero)
	// TokenNop field, as StampDecr would if called again.
	StampDecr(kai, p, 13)
	if got := Validate(ring, kaiAlways(kai), p, 100, w); got != Invalid {
		t.Fatalf("downstream restamp accepted: %v", got)
	}
}

func TestKeyRotationGrace(t *testing.T) {
	ring := NewKeyRing(*rand.NewPCG(1, 2))
	_, kai := testKeys()
	p := newPkt(10, 20)
	StampNop(ring.Current(), p, 100)
	ring.Rotate()
	if got := Validate(ring, kaiAlways(kai), p, 101, w); got != ValidNop {
		t.Fatalf("feedback stamped before rotation rejected: %v", got)
	}
	ring.Rotate()
	if got := Validate(ring, kaiAlways(kai), p, 101, w); got != Invalid {
		t.Fatalf("feedback survived two rotations: %v", got)
	}
}

func TestUnknownLinkASInvalid(t *testing.T) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	StampNop(ring.Current(), p, 100)
	StampDecr(kai, p, 9)
	noLookup := func(packet.LinkID) *cmac.CMAC { return nil }
	if got := Validate(ring, noLookup, p, 100, w); got != Invalid {
		t.Fatalf("decr with unknown link AS accepted: %v", got)
	}
}

func TestReturnedRoundTrip(t *testing.T) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	StampIncr(ring.Current(), p, 100, 9)
	ret := ToReturned(p.FB)
	// The sender presents the returned feedback on its next packet.
	next := newPkt(10, 20)
	next.FB = ToPresented(ret)
	if got := Validate(ring, kaiAlways(kai), next, 101, w); got != ValidMon {
		t.Fatalf("presented returned feedback rejected: %v", got)
	}
}

// TestValidateProperty fuzzes stamping parameters: honestly stamped
// feedback always validates within the freshness window, under all three
// constructions.
func TestValidateProperty(t *testing.T) {
	ring, kai := testKeys()
	lookup := kaiAlways(kai)
	prop := func(src, dst int32, ts uint32, link uint32, mode uint8) bool {
		if ts > 1<<30 {
			ts %= 1 << 30
		}
		p := newPkt(packet.NodeID(src), packet.NodeID(dst))
		l := packet.LinkID(link%1000 + 1)
		switch mode % 3 {
		case 0:
			StampNop(ring.Current(), p, ts)
			return Validate(ring, lookup, p, ts, w) == ValidNop
		case 1:
			StampIncr(ring.Current(), p, ts, l)
			return Validate(ring, lookup, p, ts, w) == ValidMon
		default:
			StampNop(ring.Current(), p, ts)
			StampDecr(kai, p, l)
			return Validate(ring, lookup, p, ts, w) == ValidMon
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestExpiredStaleProperty: feedback older than w seconds never validates.
func TestExpiredStaleProperty(t *testing.T) {
	ring, kai := testKeys()
	lookup := kaiAlways(kai)
	prop := func(age uint8) bool {
		ts := uint32(1000)
		p := newPkt(1, 2)
		StampIncr(ring.Current(), p, ts, 3)
		now := ts + uint32(age)
		got := Validate(ring, lookup, p, now, w)
		if age <= w {
			return got == ValidMon
		}
		return got == Invalid
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkValidateIncr(b *testing.B) {
	ring, kai := testKeys()
	lookup := kaiAlways(kai)
	p := newPkt(10, 20)
	StampIncr(ring.Current(), p, 100, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Validate(ring, lookup, p, 101, w) != ValidMon {
			b.Fatal("invalid")
		}
	}
}

func BenchmarkStampDecr(b *testing.B) {
	ring, kai := testKeys()
	p := newPkt(10, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StampNop(ring.Current(), p, 100)
		StampDecr(kai, p, 9)
	}
}
