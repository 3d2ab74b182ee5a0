package packet

import "unsafe"

// Pool recycles Packets so steady-state forwarding allocates nothing. It
// is deliberately not synchronized: each simulation engine is
// single-threaded and owns one pool (parallel sweep cells and the
// shards of a sharded run each get their own network, engine and
// pool).
//
// Ownership rule: a packet has exactly one owner at a time — the
// transport that drew it, then the queue/limiter holding it, then the
// network delivering it — and is recycled by the pool of the network it
// ends its life on (final delivery or drop), after every observer hook
// has run. On one engine that is the pool it was drawn from. A packet
// crossing a cut link of a sharded run takes its struct along, trailer
// block and Ext included: a struct lives where its packet is, and
// empties go home — the destination shard hands an idle struct of its
// own back for each one it receives (Lend there, Adopt here; see
// netsim.Mailbox), so every shard's pool stays as small as its own
// traffic in flight. News counts a struct where it was carved, Len
// where it rests.
// Packets constructed directly with &Packet{} (tests, hand-crafted
// probes) are not pool-managed: Put ignores them, so legacy call sites
// that inspect a packet after the run keep working.
//
// A pool with nothing recycled carves its fresh packet from the rest of
// a slab it allocated earlier, and allocates a new slab only when that
// rest is used up. A slab fills one allocator class: 68 bare 120-byte
// packets in 8192 bytes (slabLen), or, on a pool that makes trailers
// (MakeTrailers; the pool of a network whose defense stamps Passport
// trailers), 61 packets of 200 bytes, each with its trailer block beside
// it, in 12288 (passportSlabLen). Any other packet makes its block on
// first need (NeedPassport). The uncarved rest is not idle packets: it
// is held apart from the free list, so Len and Lend never see it, and
// News counts each packet as it is carved. A slab element may end its
// life in another shard's pool (Lend/Adopt): elements are distinct
// memory, and pools never free.
type Pool struct {
	free []*Packet

	// slab and pslab are the uncarved rest of the current slab of bare
	// and of trailer-made packets.
	slab  []Packet
	pslab []passportPacket

	// Gets counts Get calls, News the subset that handed out a fresh
	// Packet, Puts successful recycles — Gets-News hits quantify reuse.
	Gets, News, Puts uint64

	trailers bool
}

// passportPacket is a packet made with its trailer block, the element
// of a trailer-making Pool's slab.
type passportPacket struct {
	Packet
	block passportBlock
}

// Slab lengths: as many packets as fill the allocator class the slab is
// sized for, so a struct that grows shortens its slab instead of
// pushing it into the next class (TestPacketLayoutBudget).
const (
	slabLen         = int(8192 / unsafe.Sizeof(Packet{}))
	passportSlabLen = int(12288 / unsafe.Sizeof(passportPacket{}))
)

// MakeTrailers makes every fresh packet the pool carves from now on
// carry a zeroed trailer block with its inline entries; packets carved
// before make theirs on first need. The system that stamps Passport
// trailers calls it when it is built on the pool's network, before
// anything draws a packet.
func (pl *Pool) MakeTrailers() { pl.trailers = true }

// Get returns a zeroed packet, reusing a recycled one when available.
func (pl *Pool) Get() *Packet {
	pl.Gets++
	n := len(pl.free)
	if n == 0 {
		pl.News++
		if pl.trailers {
			if len(pl.pslab) == 0 {
				pl.pslab = make([]passportPacket, passportSlabLen)
			}
			b := &pl.pslab[0]
			pl.pslab = pl.pslab[1:]
			b.pooled = true
			b.block.attach(&b.Packet)
			return &b.Packet
		}
		if len(pl.slab) == 0 {
			pl.slab = make([]Packet, slabLen)
		}
		p := &pl.slab[0]
		pl.slab = pl.slab[1:]
		p.pooled = true
		return p
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	p.inPool = false
	return p
}

// Put resets p and returns it to the pool. Packets that did not come from
// a pool are ignored; returning the same packet twice without an
// intervening Get panics — that is a double-free, and silently accepting
// it would hand two owners the same packet.
func (pl *Pool) Put(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	if p.inPool {
		panic("packet: double release to pool")
	}
	p.Reset()
	p.inPool = true
	pl.Puts++
	pl.free = append(pl.free, p)
}

// Len returns the number of idle packets held by the pool.
func (pl *Pool) Len() int { return len(pl.free) }

// Lend moves up to n idle packets off the free list onto dst: the empties
// a shard sends home for the packets a cut link brought it.
func (pl *Pool) Lend(dst []*Packet, n int) []*Packet {
	k := len(pl.free) - min(n, len(pl.free))
	dst = append(dst, pl.free[k:]...)
	pl.free = pl.free[:k]
	return dst
}

// Adopt takes idle packets another pool lent onto the free list.
func (pl *Pool) Adopt(ps []*Packet) { pl.free = append(pl.free, ps...) }

// Reset zeroes every field of p, making it indistinguishable from a
// freshly allocated packet to every consumer. The deliberate exception
// is retained capacity: the trailer block survives, zeroed, with its
// entry array truncated to length zero (rewritten field-for-field on the
// next stamp) — whether the packet was made with it on a Passport run
// or made it later in NeedPassport — and so does an Ext block (zeroed),
// so Passport, Appendix B.1 and TVA+ runs do not allocate per packet.
// Nothing in the tree keeps a *PassportStamp or its entries beyond the
// packet's own life, so the retained block cannot alias live state. The
// multi-bottleneck headers inside Ext are fully zeroed: shims copy those
// by value, and a shared backing array would let a recycled packet
// corrupt a peer's cached feedback.
func (p *Packet) Reset() {
	st, ext := p.Passport, p.Ext
	pooled, inPool := p.pooled, p.inPool
	*p = Packet{}
	if st != nil {
		*st = PassportStamp{Entries: st.Entries[:0]}
		p.Passport = st
	}
	if ext != nil {
		*ext = Ext{}
		p.Ext = ext
	}
	p.pooled, p.inPool = pooled, inPool
}
