package netsim

import (
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Mailbox carries packets across one cut link of a partitioned
// simulation: the shard owning the link's From side produces handoffs
// during its window, the shard owning the To side drains them at the
// next window start. Single producer, single consumer, and the two
// phases are separated by the coordinator's barrier, so plain slices
// need no further synchronization; the barrier provides the
// happens-before edge.
//
// Pending handoffs are stored structure-of-arrays — a key slab and a
// parallel packet slab — so a drain hands the destination engine one
// contiguous batch (Engine.InjectBatch). Keys in a window are minted as
// now+delay with now nondecreasing and delay constant between barriers,
// so the slab is already sorted by arrival time, and "did anything land
// in this window" is answered by the first key alone.
//
// A handoff moves a packet's contents, not its struct: a packet is
// allocated, recycled and counted by the one pool it was drawn from.
// push copies the packet into a slot of the mailbox's by-value slab and
// returns the struct to the source replica's pool on the spot; Drain
// copies each slot into a packet drawn from the destination replica's
// pool and injects that. Slots are reused window after window and keep
// their Passport trailer arrays, so a mailbox holds one window's
// handoffs at its deepest and nothing else. Traffic across a cut is
// one-way toward the bottleneck shard: transferring structs instead
// would fill the sink's free list and drain the source's for as long as
// the run lasts.
type Mailbox struct {
	// destLink is the destination replica's copy of the cut link; its
	// linkArrive handler delivers drained packets to the To node with
	// full ingress/forwarding semantics.
	destLink *Link
	keys     []sim.EventKey
	pkts     []packet.Packet
	// args is Drain's scratch: the destination's packets boxed as `any`
	// for the batch injection.
	args []any
}

// NewMailbox creates the mailbox for a cut link. dest must be the
// destination shard replica's copy of the link (same Index as the
// source's).
func NewMailbox(dest *Link) *Mailbox { return &Mailbox{destLink: dest} }

// push records one handoff and recycles p into pool, the source
// replica's. Called by the source shard inside the transmit-complete
// event.
func (m *Mailbox) push(pool *packet.Pool, p *packet.Packet, key sim.EventKey) {
	m.keys = append(m.keys, key)
	n := len(m.pkts)
	if n < cap(m.pkts) {
		m.pkts = m.pkts[:n+1] // the slot's retained arrays are reused
	} else {
		m.pkts = append(m.pkts, packet.Packet{})
	}
	m.pkts[n].CopyFrom(p)
	pool.Put(p)
}

// Pending exposes the mailbox's undrained handoff batch: the sorted
// arrival-key slab and the parallel packet slab. The sharded validation
// pipeline reads it between the coordinator's barrier and Drain — every
// shard is parked at the drain round, so the batch (and all replica
// state the verdicts depend on) is frozen — and writes its verdicts
// into the slots, so they travel with Drain's copy. The slices alias
// the mailbox's slabs and are invalidated by the next Drain or push.
func (m *Mailbox) Pending() ([]sim.EventKey, []packet.Packet) { return m.keys, m.pkts }

// DestLink returns the destination replica's copy of the cut link —
// where Pending packets will arrive.
func (m *Mailbox) DestLink() *Link { return m.destLink }

// Drain injects every pending arrival into the destination engine as
// one batch and reports whether any landed at or before deadline.
// Called by the destination shard at window start, after the barrier.
func (m *Mailbox) Drain(deadline sim.Time) bool {
	if len(m.keys) == 0 {
		return false
	}
	net := m.destLink.net
	// Runtime-plane accounting, written on the destination goroutine
	// (the only side active after the barrier): handoff volume and the
	// deepest batch any drain saw. Shard-layout-dependent by nature.
	cells := net.Cells
	cells.Add(obs.NetsimHandoffBatches, 1)
	cells.Add(obs.NetsimHandoffPackets, uint64(len(m.keys)))
	cells.SetMax(obs.NetsimMailboxDepthHWM, uint64(len(m.keys)))
	// Keys ascend within the slab, so the earliest arrival is keys[0].
	hit := m.keys[0].At <= deadline
	for i := range m.pkts {
		p := net.Pool.Get()
		p.CopyFrom(&m.pkts[i])
		m.args = append(m.args, p)
	}
	net.Eng.InjectBatch(m.keys, (*linkArrive)(m.destLink), m.args)
	clear(m.args)
	m.keys = m.keys[:0]
	m.pkts = m.pkts[:0]
	m.args = m.args[:0]
	return hit
}
