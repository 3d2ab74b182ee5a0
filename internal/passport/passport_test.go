package passport

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netfence/internal/cmac"
	"netfence/internal/packet"
)

func testRegistry() *Registry {
	rng := rand.New(rand.NewPCG(7, 7))
	return NewRegistry(rng, []packet.ASID{1, 2, 3, 4})
}

func TestKeySymmetry(t *testing.T) {
	r := testRegistry()
	if r.Key(1, 2) != r.Key(2, 1) {
		t.Fatal("pairwise key not symmetric")
	}
	if r.Key(1, 1) == nil {
		t.Fatal("self-pair key missing")
	}
	if r.Key(1, 9) != nil {
		t.Fatal("unknown AS has a key")
	}
}

func TestStampVerifyPath(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, DstAS: 4, Size: 1500}
	path := []packet.ASID{2, 3, 4}
	r.Stamp(p, path)
	for _, as := range path {
		if !r.Verify(p, as) {
			t.Fatalf("verification failed at AS %d", as)
		}
	}
	// Re-verifying inside an already-entered AS is free; an AS that was
	// never on the path fails.
	if !r.Verify(p, 4) {
		t.Fatal("re-verification at the last AS failed")
	}
	if r.Verify(p, 9) {
		t.Fatal("off-path AS verified")
	}
}

func TestSpoofedSourceASFails(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 1500}
	r.Stamp(p, []packet.ASID{2, 3})
	p.SrcAS = 3 // attacker claims a different origin AS
	if r.Verify(p, 2) {
		t.Fatal("spoofed source AS verified")
	}
}

func TestTamperedPacketFails(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 1500}
	r.Stamp(p, []packet.ASID{2})
	p.Size = 9000 // on-path size inflation (§5.2.2)
	if r.Verify(p, 2) {
		t.Fatal("size-inflated packet verified")
	}
}

func TestNoTrailerFails(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 100}
	if r.Verify(p, 2) {
		t.Fatal("packet without trailer verified")
	}
}

func TestVerifySkipInvalidatesEarlierEntries(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 100}
	r.Stamp(p, []packet.ASID{2, 3})
	// Verifying at AS 3 first consumes past AS 2's entry...
	if !r.Verify(p, 3) {
		t.Fatal("AS 3 verification failed")
	}
	// ...so a later AS 2 verification fails (path order enforced).
	if r.Verify(p, 2) {
		t.Fatal("skipped entry still verified")
	}
}

func TestVerifyTwiceAtSameAS(t *testing.T) {
	// A second router inside an already-verified AS re-verifies for free:
	// a transit AS checks Passport at ingress only.
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 100}
	r.Stamp(p, []packet.ASID{2, 3})
	if !r.Verify(p, 2) || !r.Verify(p, 2) {
		t.Fatal("re-verification at the same AS failed")
	}
	if !r.Verify(p, 3) {
		t.Fatal("downstream AS failed after re-verification")
	}
}

// Property: for random paths over the registered ASes, stamped packets
// verify hop by hop; mutating the source always breaks every hop.
func TestStampVerifyProperty(t *testing.T) {
	r := testRegistry()
	all := []packet.ASID{2, 3, 4}
	prop := func(src, dst int32, size int32, pathBits uint8, spoof bool) bool {
		var path []packet.ASID
		for i, as := range all {
			if pathBits&(1<<i) != 0 {
				path = append(path, as)
			}
		}
		if len(path) == 0 {
			return true
		}
		p := &packet.Packet{Src: packet.NodeID(src), Dst: packet.NodeID(dst), SrcAS: 1, Size: size}
		r.Stamp(p, path)
		if spoof {
			p.Src++
		}
		for _, as := range path {
			if r.Verify(p, as) == spoof {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// snapTrailer deep-copies a trailer so later in-place mutation of the
// shared Entries backing array is detectable.
func snapTrailer(p *packet.Packet) packet.PassportStamp {
	s := *p.Passport
	s.Entries = append([]packet.PassportMAC(nil), s.Entries...)
	return s
}

// equalTrailer deep-compares two trailers (PassportStamp holds a slice,
// so == is unavailable).
func equalTrailer(x, y packet.PassportStamp) bool {
	if x.Present != y.Present || x.Next != y.Next || len(x.Entries) != len(y.Entries) {
		return false
	}
	for i := range x.Entries {
		if x.Entries[i] != y.Entries[i] {
			return false
		}
	}
	return true
}

// TestCheckApplyMatchesVerify: the pure Check plus deferred Apply — the
// pipeline's split form — must agree with Verify hop by hop, including
// corrupted MACs, spoofed sources and off-path ASes, and leave the
// trailer in the identical state.
func TestCheckApplyMatchesVerify(t *testing.T) {
	mk := func(corrupt, spoof bool) (*packet.Packet, *packet.Packet) {
		a := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, DstAS: 4, Size: 1500}
		b := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, DstAS: 4, Size: 1500}
		r := testRegistry()
		r.Stamp(a, []packet.ASID{2, 3, 4})
		r.Stamp(b, []packet.ASID{2, 3, 4})
		if corrupt {
			a.Passport.Entries[1].MAC[0] ^= 1
			b.Passport.Entries[1].MAC[0] ^= 1
		}
		if spoof {
			a.SrcAS, b.SrcAS = 9, 9
		}
		return a, b
	}
	for _, tc := range []struct {
		name           string
		corrupt, spoof bool
		hops           []packet.ASID
	}{
		{name: "honest path", hops: []packet.ASID{2, 3, 4, 4, 9}},
		{name: "skip then revisit", hops: []packet.ASID{3, 2, 4}},
		{name: "corrupted mac", corrupt: true, hops: []packet.ASID{2, 3, 4}},
		{name: "spoofed source", spoof: true, hops: []packet.ASID{2, 3}},
	} {
		r := testRegistry()
		a, b := mk(tc.corrupt, tc.spoof)
		for _, as := range tc.hops {
			want := r.Verify(a, as)
			ok, consume := r.Check(b, as, r.Key(b.SrcAS, as))
			Apply(b, consume)
			if ok != want {
				t.Fatalf("%s: Check at AS %d = %v, Verify = %v", tc.name, as, ok, want)
			}
			if !equalTrailer(*a.Passport, *b.Passport) {
				t.Fatalf("%s: trailer state diverged after AS %d:\nverify: %+v\nsplit:  %+v",
					tc.name, as, *a.Passport, *b.Passport)
			}
		}
	}
}

// TestCheckIsPure: Check must not mutate the packet — the pipeline
// calls it at the drain barrier and defers the consumption to Apply at
// the protected link.
func TestCheckIsPure(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 700}
	r.Stamp(p, []packet.ASID{2, 3})
	before := snapTrailer(p)
	ok, consume := r.Check(p, 3, r.Key(1, 3))
	if !ok || consume < 0 {
		t.Fatalf("Check(AS 3) = (%v, %d), want a consuming success", ok, consume)
	}
	if !equalTrailer(*p.Passport, before) {
		t.Fatal("Check mutated the trailer")
	}
	// A negative consume Apply is a no-op.
	Apply(p, -1)
	if !equalTrailer(*p.Passport, before) {
		t.Fatal("Apply(-1) mutated the trailer")
	}
}

// TestStampSizesTrailerOnce pins the trailer's allocations: a fresh
// packet gets block and entries in one, a path that outgrows the block's
// inline entries one more for an array sized to it, and a packet that
// has carried a path stamps that one or a shorter one in none.
func TestStampSizesTrailerOnce(t *testing.T) {
	r := fzRegistry()
	for _, tc := range []struct {
		name  string
		path  []packet.ASID
		fresh float64
	}{
		{"inline", []packet.ASID{2, 3, 4}, 1},
		{"outgrown", []packet.ASID{2, 3, 4, 5, 6, 7, 8, 2}, 2},
	} {
		fresh := testing.AllocsPerRun(100, func() {
			p := packet.Packet{Src: 10, Dst: 20, SrcAS: 1, DstAS: 4, Size: 1500}
			r.Stamp(&p, tc.path)
		})
		if fresh != tc.fresh {
			t.Errorf("%s: Stamp on a fresh packet allocates %.0f times, want %.0f", tc.name, fresh, tc.fresh)
		}
		p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, DstAS: 4, Size: 1500}
		r.Stamp(p, tc.path)
		if cap(p.Passport.Entries) < len(tc.path) || len(p.Passport.Entries) != len(tc.path) {
			t.Fatalf("%s: %d entries in an array of %d for a path of %d", tc.name, len(p.Passport.Entries), cap(p.Passport.Entries), len(tc.path))
		}
		for _, path := range [][]packet.ASID{tc.path, tc.path[:2]} {
			if again := testing.AllocsPerRun(100, func() { r.Stamp(p, path) }); again != 0 {
				t.Errorf("%s: Stamp of %d hops on a packet that carried %d allocates %.0f times, want 0", tc.name, len(path), len(tc.path), again)
			}
			for _, as := range path {
				if !r.Verify(p, as) {
					t.Fatalf("%s: verification failed at AS %d of %v", tc.name, as, path)
				}
			}
		}
	}
}

// TestRecycledPacketChecksLikeFresh: whatever trailer and verdicts a
// packet carried, once through the pool it is a fresh packet to Check,
// Apply and Verify — no trailer — and to the next Stamp, which reuses
// the block it kept.
func TestRecycledPacketChecksLikeFresh(t *testing.T) {
	r := testRegistry()
	var pool packet.Pool
	p := pool.Get()
	p.Src, p.Dst, p.SrcAS, p.Size = 10, 20, 1, 1500
	r.Stamp(p, []packet.ASID{2, 3, 4})
	if !r.Verify(p, 3) {
		t.Fatal("verification failed at AS 3")
	}
	st := p.Passport
	st.PVLink, st.PVOK, st.PVConsume = 5, true, 2
	pool.Put(p)

	q := pool.Get()
	if q != p || q.Passport != st {
		t.Fatal("the pool did not hand back the packet with its block")
	}
	q.Src, q.Dst, q.SrcAS, q.Size = 10, 20, 1, 1500
	fresh := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 1500}
	for _, as := range []packet.ASID{2, 3, 4, 9} {
		ok, consume := r.Check(q, as, r.Key(1, as))
		wantOK, wantConsume := r.Check(fresh, as, r.Key(1, as))
		if ok != wantOK || consume != wantConsume {
			t.Fatalf("Check at AS %d on a recycled packet = (%v, %d), on a fresh one (%v, %d)", as, ok, consume, wantOK, wantConsume)
		}
		if r.Verify(q, as) {
			t.Fatalf("a recycled packet verified at AS %d on the trailer of its previous life", as)
		}
	}
	if st.PVLink != 0 || st.PVOK || st.Next != 0 {
		t.Fatalf("a recycled block kept verdicts or consumption: %+v", *st)
	}
	r.Stamp(q, []packet.ASID{3, 4})
	r.Stamp(fresh, []packet.ASID{3, 4})
	if q.Passport != st || !equalTrailer(*q.Passport, *fresh.Passport) {
		t.Fatalf("stamped after recycling: %+v, a fresh packet: %+v", *q.Passport, *fresh.Passport)
	}
}

// TestRegistryKeyGolden pins the key bytes a seeded registry draws: one
// MAC of a fixed input under every pair key, the self-pairs included,
// over ASes declared out of numeric order. The values were recorded from
// the eager table that built every CMAC in NewRegistry; a table that
// draws a pair's bytes in another order, or into another pair, fails.
func TestRegistryKeyGolden(t *testing.T) {
	ases := []packet.ASID{7, 1, 300, 2}
	r := NewRegistry(rand.New(rand.NewPCG(11, 5)), ases)
	in := []byte("netfence-passport-k!")
	for _, g := range []struct {
		a, b packet.ASID
		sum  [4]byte
	}{
		{7, 7, [4]byte{0x61, 0x8e, 0x07, 0xca}},
		{7, 1, [4]byte{0x48, 0x03, 0x49, 0x87}},
		{7, 300, [4]byte{0x75, 0x95, 0x71, 0x50}},
		{7, 2, [4]byte{0x79, 0x82, 0xc7, 0x26}},
		{1, 1, [4]byte{0x5e, 0xf8, 0x36, 0x52}},
		{1, 300, [4]byte{0xb9, 0x2b, 0x58, 0x9a}},
		{1, 2, [4]byte{0x8c, 0xa0, 0xbe, 0xd8}},
		{300, 300, [4]byte{0x7a, 0x86, 0xc3, 0x2e}},
		{300, 2, [4]byte{0xad, 0x48, 0x32, 0x84}},
		{2, 2, [4]byte{0xdc, 0x4d, 0x07, 0xe4}},
	} {
		// Ask in both orders: a pair has one key.
		for _, k := range [][2]packet.ASID{{g.a, g.b}, {g.b, g.a}} {
			if got := r.Key(k[0], k[1]).Sum32(in); got != g.sum {
				t.Errorf("Key(%d, %d).Sum32 = %x, want %x", k[0], k[1], got, g.sum)
			}
		}
	}
}

// TestRawAgreesWithKey holds the raw-key accessor to Key: a CMAC built
// from Raw's bytes computes what the registry's own does, for every
// pair in both orders, and an unknown pair has neither.
func TestRawAgreesWithKey(t *testing.T) {
	ases := []packet.ASID{7, 1, 300, 2}
	r := NewRegistry(rand.New(rand.NewPCG(11, 5)), ases)
	in := []byte("netfence-passport-k!")
	for _, a := range ases {
		for _, b := range ases {
			raw, ok := r.Raw(a, b)
			if !ok {
				t.Fatalf("Raw(%d, %d) unknown", a, b)
			}
			if got, want := cmac.New(raw).Sum32(in), r.Key(a, b).Sum32(in); got != want {
				t.Fatalf("Raw(%d, %d) MACs %x, Key %x", a, b, got, want)
			}
		}
	}
	if _, ok := r.Raw(1, 9); ok || r.Key(1, 9) != nil {
		t.Fatal("unknown AS has a key")
	}
}

// TestNewRegistryMakesNoCMAC: establishing the keys of 64 ASes (2,080
// pairs) makes no CMAC — each costs an AES key schedule and two
// allocations — so its allocations stay a handful, not thousands.
func TestNewRegistryMakesNoCMAC(t *testing.T) {
	ases := make([]packet.ASID, 64)
	for i := range ases {
		ases[i] = packet.ASID(i + 1)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	allocs := testing.AllocsPerRun(5, func() { NewRegistry(rng, ases) })
	if allocs > 32 {
		t.Fatalf("NewRegistry over 64 ASes made %.0f allocations, want at most 32", allocs)
	}
}
