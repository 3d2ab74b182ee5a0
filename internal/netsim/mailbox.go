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
// parallel packet-argument slab — so a drain hands the destination
// engine one contiguous batch (Engine.InjectBatch). Keys in a window are
// minted as now+delay with now nondecreasing and delay constant between
// barriers, so the slab is already sorted by arrival time, and "did
// anything land in this window" is answered by the first key alone.
//
// Ownership transfer: a handed-off packet leaves the source shard's
// pool domain with the push and enters the destination's — the
// destination network releases it into its own pool at end of life.
// Packet structs therefore migrate between per-shard pools over time,
// which is fine: pools are free lists, not arenas.
type Mailbox struct {
	// destLink is the destination replica's copy of the cut link; its
	// linkArrive handler delivers drained packets to the To node with
	// full ingress/forwarding semantics.
	destLink *Link
	keys     []sim.EventKey
	// args holds the packets pre-boxed as `any` so the batch injection
	// reuses the interface words instead of boxing per event.
	args []any
}

// NewMailbox creates the mailbox for a cut link. dest must be the
// destination shard replica's copy of the link (same Index as the
// source's).
func NewMailbox(dest *Link) *Mailbox { return &Mailbox{destLink: dest} }

// push records one handoff. Called by the source shard inside the
// transmit-complete event.
func (m *Mailbox) push(p *packet.Packet, key sim.EventKey) {
	m.keys = append(m.keys, key)
	m.args = append(m.args, p)
}

// Pending exposes the mailbox's undrained handoff batch: the sorted
// arrival-key slab and the parallel packet-argument slab. The sharded
// validation pipeline reads it between the coordinator's barrier and
// Drain — every shard is parked at the drain round, so the batch (and
// all replica state the verdicts depend on) is frozen. The slices alias
// the mailbox's slabs and are invalidated by the next Drain or push.
func (m *Mailbox) Pending() ([]sim.EventKey, []any) { return m.keys, m.args }

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
	// Runtime-plane accounting, written on the destination goroutine
	// (the only side active after the barrier): handoff volume and the
	// deepest batch any drain saw. Shard-layout-dependent by nature.
	cells := m.destLink.net.Cells
	cells.Add(obs.NetsimHandoffBatches, 1)
	cells.Add(obs.NetsimHandoffPackets, uint64(len(m.keys)))
	cells.SetMax(obs.NetsimMailboxDepthHWM, uint64(len(m.keys)))
	// Keys ascend within the slab, so the earliest arrival is keys[0].
	hit := m.keys[0].At <= deadline
	eng := m.destLink.net.Eng
	eng.InjectBatch(m.keys, (*linkArrive)(m.destLink), m.args)
	for i := range m.args {
		m.args[i] = nil
	}
	m.keys = m.keys[:0]
	m.args = m.args[:0]
	return hit
}
