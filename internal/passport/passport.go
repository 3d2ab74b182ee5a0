// Package passport implements the subset of Passport (Liu et al.,
// NSDI 2008) that NetFence depends on: a secret key shared by every pair
// of Autonomous Systems, established by piggybacking a Diffie-Hellman
// exchange on inter-domain routing, and per-AS MACs that let each transit
// AS verify a packet really originates from its claimed source AS.
//
// NetFence uses Passport for two things (§4.5): preventing source-address
// spoofing, and providing the pairwise keys Kai that protect L-down
// feedback. The simulated key exchange stands in for the BGP piggyback:
// both end up with a table of pairwise symmetric keys, which is all the
// data path consumes.
package passport

import (
	"encoding/binary"
	"math/rand/v2"

	"netfence/internal/cmac"
	"netfence/internal/packet"
)

// Registry holds the pairwise AS keys. In deployment each AS derives the
// shared keys from the in-band Diffie-Hellman exchange; here a trusted
// setup draws them from a seeded RNG, which is equivalent for every
// data-path purpose (both parties of a pair hold the same secret, third
// parties do not).
//
// The table keeps each pair's 16 key bytes and makes the pair's CMAC on
// the first Key call: a run uses few of the N(N+1)/2 pairs. Key fills
// that cache, so it is for the goroutine owning the registry.
type Registry struct {
	raw map[[2]packet.ASID]cmac.Key
	// index numbers the ASes: an open-addressed table, a slot per AS at
	// the first free place from its hash (asHash), holding the AS and its
	// number plus one. cols[j] holds the CMACs the AS numbered j shares
	// with each AS by number, the column made at the first Key call
	// naming it second. Key's callers name the far AS second — a
	// bottleneck's own, a link's, a path's transit AS — so a run makes
	// few columns, and a verification resolves its key in two probes of
	// a table of a few dozen slots and two slice indexes instead of
	// hashing the AS pair into the map.
	index []asSlot
	shift uint8
	cols  [][]*cmac.CMAC
}

// asSlot is one slot of Registry.index; num 0 marks it empty.
type asSlot struct {
	as  packet.ASID
	num int32
}

// asHash places AS a in an index of 2^(32-shift) slots (Fibonacci
// hashing: the top bits of a multiplicative hash).
func asHash(a packet.ASID, shift uint8) int { return int(uint32(a) * 0x9e3779b9 >> shift) }

// NewRegistry establishes a key for every unordered pair of the given
// ASes, including the self-pair (used when the bottleneck is in the
// sender's own AS).
func NewRegistry(rng *rand.Rand, ases []packet.ASID) *Registry {
	r := &Registry{raw: make(map[[2]packet.ASID]cmac.Key, len(ases)*(len(ases)+1)/2)}
	for i, a := range ases {
		for _, b := range ases[i:] {
			var k cmac.Key
			for j := 0; j < 16; j += 8 {
				binary.LittleEndian.PutUint64(k[j:], rng.Uint64())
			}
			r.raw[pairKey(a, b)] = k
		}
	}
	// At most half the slots are taken, so a probe ends within a few.
	r.shift = 31
	for 1<<(32-r.shift) < 2*len(ases) {
		r.shift--
	}
	r.index = make([]asSlot, 1<<(32-r.shift))
	r.cols = make([][]*cmac.CMAC, 0, len(ases))
	for _, a := range ases {
		if r.number(a) < 0 {
			r.cols = append(r.cols, nil)
			i := asHash(a, r.shift)
			for r.index[i].num != 0 {
				i = (i + 1) & (len(r.index) - 1)
			}
			r.index[i] = asSlot{a, int32(len(r.cols))}
		}
	}
	return r
}

func pairKey(a, b packet.ASID) [2]packet.ASID {
	if a > b {
		a, b = b, a
	}
	return [2]packet.ASID{a, b}
}

// Key returns the MAC keyed with the secret shared by ASes a and b, or
// nil if the pair is unknown. The first call for a pair makes its CMAC,
// which Key(b, a) returns too.
func (r *Registry) Key(a, b packet.ASID) *cmac.CMAC {
	i, j := r.number(a), r.number(b)
	if i < 0 || j < 0 {
		return nil
	}
	col := r.cols[j]
	if col == nil {
		col = make([]*cmac.CMAC, len(r.cols))
		r.cols[j] = col
	}
	m := col[i]
	if m == nil {
		if other := r.cols[i]; other != nil && other[j] != nil {
			m = other[j]
		} else {
			m = cmac.New(r.raw[pairKey(a, b)])
			if other != nil {
				other[j] = m
			}
		}
		col[i] = m
	}
	return m
}

// number returns AS a's number, or -1 when the registry has no key for
// it.
func (r *Registry) number(a packet.ASID) int {
	mask := len(r.index) - 1
	for i := asHash(a, r.shift); r.index[i].num != 0; i = (i + 1) & mask {
		if r.index[i].as == a {
			return int(r.index[i].num) - 1
		}
	}
	return -1
}

// macInput is the canonical Passport MAC input. Passport's MAC covers the
// source and destination addresses, the packet length and the first bytes
// of the transport payload (§5.2.2 of the NetFence paper); the simulation
// covers the equivalent invariant packet fields.
func macInput(buf *[20]byte, p *packet.Packet, transitAS packet.ASID) []byte {
	binary.BigEndian.PutUint32(buf[0:], uint32(p.Src))
	binary.BigEndian.PutUint32(buf[4:], uint32(p.Dst))
	binary.BigEndian.PutUint32(buf[8:], uint32(p.SrcAS))
	binary.BigEndian.PutUint32(buf[12:], uint32(transitAS))
	binary.BigEndian.PutUint32(buf[16:], uint32(p.Size))
	return buf[:]
}

// Hop is one AS of a path with the key the source AS shares with it (nil
// when the pair is unknown).
type Hop struct {
	AS  packet.ASID
	Key *cmac.CMAC
}

// Hops appends to hops the given AS-level path (excluding the source AS
// itself) with srcAS's pair keys resolved: the per-path half of Stamp,
// which a border router computes once for each destination it sends to.
func (r *Registry) Hops(hops []Hop, srcAS packet.ASID, path []packet.ASID) []Hop {
	for _, as := range path {
		hops = append(hops, Hop{as, r.Key(srcAS, as)})
	}
	return hops
}

// Stamp writes the Passport trailer into p for the given AS-level path
// (excluding the source AS itself). It is called by the border router of
// the source AS.
func (r *Registry) Stamp(p *packet.Packet, path []packet.ASID) {
	var buf [8]Hop
	StampHops(p, r.Hops(buf[:0], p.SrcAS, path))
}

// StampHops is the per-packet half of Stamp: it writes the trailer for a
// path whose keys Hops resolved for p.SrcAS.
func StampHops(p *packet.Packet, hops []Hop) {
	entries := trailer(p, len(hops))
	var buf [20]byte
	for i, h := range hops {
		entries[i] = packet.PassportMAC{AS: h.AS}
		if h.Key != nil {
			entries[i].MAC = h.Key.Sum32(macInput(&buf, p, h.AS))
		}
	}
}

// StampMACs writes the trailer StampHops would, from the MACs, one per
// hop, that StampHops computed for a packet equal to p in every MAC input
// (source and destination addresses, source AS and size).
func StampMACs(p *packet.Packet, hops []Hop, macs [][4]byte) {
	entries := trailer(p, len(hops))
	for i, h := range hops {
		entries[i] = packet.PassportMAC{AS: h.AS, MAC: macs[i]}
	}
}

// trailer readies p's trailer for n entries and returns them to be
// written. It rebuilds in place on top of the packet's retained trailer
// block (packet.Pool keeps it across recycles), setting every trailer
// field so no stale entry survives.
func trailer(p *packet.Packet, n int) []packet.PassportMAC {
	st := p.NeedPassport()
	entries := st.Entries[:0]
	if cap(entries) < n {
		// A path longer than the block's inline entries: size the array
		// once, not by append doublings.
		entries = make([]packet.PassportMAC, 0, n)
	}
	st.Entries, st.Next, st.Present = entries[:n], 0, true
	return st.Entries
}

// Verify checks p's Passport trailer at the given transit AS. Entries are
// consumed in path order: verifying an AS that appears later in the
// trailer skips and invalidates the ones before it (the packet did not
// enter those ASes before this one), while re-verifying at a second router of an already-verified AS succeeds
// without consuming anything — a transit AS verifies at ingress only.
func (r *Registry) Verify(p *packet.Packet, transitAS packet.ASID) bool {
	ok, consume := r.Check(p, transitAS, r.Key(p.SrcAS, transitAS))
	if consume >= 0 {
		st := p.Passport
		for j := int(st.Next); j < consume; j++ {
			st.Entries[j].AS = -1
		}
		st.Next = int32(consume + 1)
	}
	return ok
}

// Check is Verify's pure half: it computes the verdict Verify would
// return for p at transitAS without mutating the trailer. ok is the MAC
// comparison; consume is the entry index Verify consumes, or -1 when
// Verify does not touch the trailer at all (no trailer, AS already
// verified, AS absent, or key unknown). mac is the instance to compute
// with, r.Key(p.SrcAS, transitAS) for the verdict Verify gives.
func (r *Registry) Check(p *packet.Packet, transitAS packet.ASID, mac *cmac.CMAC) (ok bool, consume int) {
	st := p.Passport
	if st == nil || !st.Present {
		return false, -1
	}
	// Already verified at this AS's ingress?
	next := int(st.Next)
	for i := 0; i < next && i < len(st.Entries); i++ {
		if st.Entries[i].AS == transitAS {
			return true, -1
		}
	}
	for i := next; i < len(st.Entries); i++ {
		if st.Entries[i].AS != transitAS {
			continue
		}
		if mac == nil {
			return false, -1
		}
		var buf [20]byte
		want := mac.Sum32(macInput(&buf, p, transitAS))
		return want == st.Entries[i].MAC, i
	}
	return false, -1
}
