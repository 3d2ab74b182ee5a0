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
type Registry struct {
	keys map[[2]packet.ASID]*cmac.CMAC
}

// NewRegistry establishes a key for every unordered pair of the given
// ASes, including the self-pair (used when the bottleneck is in the
// sender's own AS).
func NewRegistry(rng *rand.Rand, ases []packet.ASID) *Registry {
	r := &Registry{keys: make(map[[2]packet.ASID]*cmac.CMAC)}
	for i, a := range ases {
		for _, b := range ases[i:] {
			var k cmac.Key
			for j := 0; j < 16; j += 8 {
				binary.LittleEndian.PutUint64(k[j:], rng.Uint64())
			}
			r.keys[pairKey(a, b)] = cmac.New(k)
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
// nil if the pair is unknown.
func (r *Registry) Key(a, b packet.ASID) *cmac.CMAC {
	return r.keys[pairKey(a, b)]
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
	// Rebuild in place on top of the packet's retained trailer block
	// (packet.Pool keeps it across recycles), writing every trailer
	// field so no stale entry survives.
	st := p.NeedPassport()
	entries := st.Entries[:0]
	if cap(entries) < len(hops) {
		// A path longer than the block's inline entries: size the array
		// once, not by append doublings.
		entries = make([]packet.PassportMAC, 0, len(hops))
	}
	var buf [20]byte
	for _, h := range hops {
		e := packet.PassportMAC{AS: h.AS}
		if h.Key != nil {
			e.MAC = h.Key.Sum32(macInput(&buf, p, h.AS))
		}
		entries = append(entries, e)
	}
	st.Entries, st.Next, st.Present = entries, 0, true
}

// Verify checks p's Passport trailer at the given transit AS. Entries are
// consumed in path order: verifying an AS that appears later in the
// trailer skips (and thereby invalidates) the ones before it, while
// re-verifying at a second router of an already-verified AS succeeds
// without consuming anything — a transit AS verifies at ingress only.
func (r *Registry) Verify(p *packet.Packet, transitAS packet.ASID) bool {
	ok, consume := r.Check(p, transitAS, r.Key(p.SrcAS, transitAS))
	Apply(p, consume)
	return ok
}

// Check is Verify's pure half: it computes the verdict Verify would
// return for p at transitAS without mutating the trailer. ok is the MAC
// comparison; consume is the entry index a subsequent Apply must
// consume, or -1 when Verify would not touch the trailer at all (no
// trailer, AS already verified, AS absent, or key unknown). mac is the
// instance to compute with — pass r.Key(p.SrcAS, transitAS) on the
// owning goroutine, or a private Clone of it from a batch worker, since
// CMAC scratch is not concurrent-safe.
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

// Apply is Verify's mutating half: it consumes the trailer entry a
// Check verdict identified. Entries bypassed by the consumption are
// invalidated — the packet demonstrably did not enter those ASes before
// this one. Apply(p, -1) is a no-op, matching the Check verdicts that
// carry no consumption.
func Apply(p *packet.Packet, consume int) {
	if consume < 0 {
		return
	}
	st := p.Passport
	for j := int(st.Next); j < consume; j++ {
		st.Entries[j].AS = -1
	}
	st.Next = int32(consume + 1)
}
