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
// A handoff moves the packet's struct, by reference: a struct lives
// where its packet is, and empties go home. push appends the key and the
// pointer; Drain moves the window onto the destination's FIFO and sends
// back, through empties, as many idle structs of the destination's pool
// as it still owes (the debt waits while that free list is short). The
// source adopts them at its next push or pool miss. empties is the one
// field the destination writes (draining) and the source reads
// (executing), never the other way round.
//
// Keys are minted as now+delay with now nondecreasing and delay constant
// between barriers, so a window is sorted by arrival time, and so is the
// FIFO as long as the delay is not lowered. One owned event, armed under
// the head's own key and re-armed as each arrival fires, therefore runs
// every arrival exactly where a pooled event per handoff would; the
// arrivals a lowered delay puts ahead of the FIFO's tail get such an
// event each.
type Mailbox struct {
	// destLink is the cut link as its destination sees it: a copy of its
	// index, ID and endpoints bound to the To node's network. Arrivals
	// reach the To node through it, in the destination shard's context
	// with full ingress/forwarding semantics, and never read the link
	// itself, whose cache lines the source shard keeps writing.
	destLink *Link
	keys     []sim.EventKey
	pkts     []*packet.Packet
	empties  []*packet.Packet

	// Destination-private: the FIFO (live from head), its event, and the
	// structs received and not yet paid for.
	fifoKeys []sim.EventKey
	fifoPkts []*packet.Packet
	head     int
	ev       sim.Event
	owed     int
}

// NewMailbox creates the mailbox delivering over the cut link l to
// l.To, in the network l.To is bound to (see Network.Bind).
func NewMailbox(l *Link) *Mailbox {
	return &Mailbox{destLink: &Link{Index: l.Index, ID: l.ID, From: l.From, To: l.To, net: l.To.net}}
}

// push records one handoff. Called by the source shard inside the
// transmit-complete event.
func (m *Mailbox) push(net *Network, p *packet.Packet, key sim.EventKey) {
	m.keys = append(m.keys, key)
	m.pkts = append(m.pkts, p)
	net.lent++
	m.adopt(&net.Pool)
}

// adopt takes the empties sent home into pool, the source shard's.
func (m *Mailbox) adopt(pool *packet.Pool) {
	pool.Adopt(m.empties)
	m.empties = m.empties[:0]
}

// Pending exposes the packets of the mailbox's undrained window. The
// sharded validation pipeline reads it between the coordinator's barrier
// and Drain — every shard is parked at the drain round, so the window
// (and all shard state the verdicts depend on) is frozen — and writes
// its verdicts into the packets. The slice is invalidated by the next
// Drain or push.
func (m *Mailbox) Pending() []*packet.Packet { return m.pkts }

// DestLink returns the destination's view of the cut link (index, ID
// and endpoints) — where Pending packets will arrive.
func (m *Mailbox) DestLink() *Link { return m.destLink }

// Drain moves every pending arrival onto the FIFO, sends home the
// empties owed, and reports whether any arrival landed at or before
// deadline. Called by the destination shard at window start, after the
// barrier.
func (m *Mailbox) Drain(deadline sim.Time) bool {
	net := m.destLink.net
	n := len(m.keys)
	if m.owed += n; m.owed > 0 {
		before := len(m.empties)
		m.empties = net.Pool.Lend(m.empties, m.owed)
		m.owed -= len(m.empties) - before
		net.sentHome += uint64(len(m.empties) - before)
	}
	if n == 0 {
		return false
	}
	// Runtime-plane accounting, written on the destination goroutine
	// (the only side active after the barrier): handoff volume and the
	// deepest batch any drain saw. Shard-layout-dependent by nature.
	cells := net.Cells
	cells.Add(obs.NetsimHandoffBatches, 1)
	cells.Add(obs.NetsimHandoffPackets, uint64(n))
	cells.SetMax(obs.NetsimMailboxDepthHWM, uint64(n))
	if m.head > len(m.fifoKeys)/2 { // the fired prefix outgrew what is live
		live := copy(m.fifoKeys, m.fifoKeys[m.head:])
		copy(m.fifoPkts, m.fifoPkts[m.head:])
		m.fifoKeys, m.fifoPkts, m.head = m.fifoKeys[:live], m.fifoPkts[:live], 0
	}
	// The window's prefix that a lowered delay put ahead of the FIFO's
	// tail is ordered by the calendar.
	i := 0
	if q := len(m.fifoKeys); q > m.head {
		for ; i < n && m.keys[i].At < m.fifoKeys[q-1].At; i++ {
			net.Eng.Inject(m.keys[i], (*linkArrive)(m.destLink), m.pkts[i])
		}
		net.keyed += uint64(i)
	}
	m.fifoKeys = append(m.fifoKeys, m.keys[i:]...)
	m.fifoPkts = append(m.fifoPkts, m.pkts[i:]...)
	net.fifoHWM = max(net.fifoHWM, uint64(len(m.fifoKeys)-m.head))
	if !m.ev.Pending() { // the FIFO was empty: the window is all of it
		m.arm()
	}
	// Keys ascend within the window, so the earliest arrival is keys[0].
	hit := m.keys[0].At <= deadline
	m.keys, m.pkts = m.keys[:0], m.pkts[:0]
	return hit
}

// arm schedules the FIFO's head under the key its handoff minted.
func (m *Mailbox) arm() {
	m.destLink.net.Eng.InjectEvent(&m.ev, m.fifoKeys[m.head], (*mailboxArrive)(m), m.fifoPkts[m.head])
}

// mailboxArrive dispatches the mailbox's owned event: the FIFO's head
// reaches the link's head end, and the next head takes the event.
type mailboxArrive Mailbox

func (h *mailboxArrive) OnEvent(_ sim.Time, arg any) {
	m := (*Mailbox)(h)
	if m.head++; m.head < len(m.fifoKeys) {
		m.arm()
	} else {
		m.fifoKeys, m.fifoPkts, m.head = m.fifoKeys[:0], m.fifoPkts[:0], 0
	}
	l := m.destLink
	l.net.arrive(arg.(*packet.Packet), l.To, l)
}
