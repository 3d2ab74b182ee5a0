package netsim

import (
	"sync/atomic"

	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Mailbox carries packets across one cut link of a partitioned
// simulation: the shard owning the link's From side pushes handoffs while
// it executes, the shard owning the To side drains them before each of
// its steps. It is a single-producer, single-consumer handoff that stays
// correct while push and Drain run at the same time: the handoffs sit in
// a list of fixed chunks, and a chunk's entry count is published with an
// atomic store after the entries are written, so a Drain sees every
// entry up to the count it loads and nothing half written. A Drain on
// the producer's goroutine after its pushes delivers everything pushed.
//
// A handoff moves the packet's struct, by reference: a struct lives
// where its packet is, and empties go home. Each arrival fired on the
// destination is owed back; at each Drain the destination lends as many
// idle structs of its own pool as it owes (the debt waits while that free
// list is short) into a lend record stamped with its clock, and the
// source adopts a record once its own clock has passed the record's
// instant by the lookahead — at a pool miss (Network.AdoptEmpties via
// Host.NewPacket) or before a step. What either side decides depends
// only on its own simulated clock, so the pools, and what they allocate,
// are the same on every run whatever the goroutines' timing.
//
// A chunk goes back to its producer the same way: once every entry in it
// lies at least one lookahead behind the producer's clock, the
// destination has executed them all and moved past it.
//
// Keys are minted as now+delay with now nondecreasing, so arrivals are in
// key order as long as the delay is not lowered. One owned event, armed
// under the FIFO head's own key and re-armed as each arrival fires,
// therefore runs every arrival exactly where a pooled event per handoff
// would; an arrival a lowered delay puts ahead of the FIFO's tail gets a
// keyed event of its own.
type Mailbox struct {
	// destLink is the cut link as its destination sees it: a copy of its
	// index, ID and endpoints bound to the To node's network. Arrivals
	// reach the To node through it, in the destination shard's context
	// with full ingress/forwarding semantics, and never read the link
	// itself, whose cache lines the source shard keeps writing.
	destLink *Link
	// lookahead is the cut link's delay when the mailbox was made, which
	// is at least the partition's lookahead and never more than the
	// delay (a cut link's delay stays at or above the lookahead).
	lookahead sim.Time

	// first is the first chunk, published by the producer's first push.
	first atomic.Pointer[handoffChunk]
	// lends counts the lend records the destination has written, and
	// adopted the records the source has taken; the ring holds them.
	lends, adopted atomic.Uint64
	ring           [lendRing]lendRecord

	// The pads keep what only the source writes and what only the
	// destination writes on cache lines of their own.
	_ [64]byte

	// Source-private: the chunk being filled and its fill, and the oldest
	// chunk not yet reused.
	tail   *handoffChunk
	fill   int
	oldest *handoffChunk

	_ [64]byte

	// Destination-private: the drain cursor, the FIFO's head (its next
	// arrival, or the drain cursor when the FIFO is empty), the FIFO's
	// length and its tail's arrival instant, its event, the arrivals owed,
	// and the two buffers lend records are carved from, with the number
	// of records written when each last gave one.
	read, head     *handoffChunk
	readAt, headAt int
	queued         int
	tailAt         sim.Time
	ev             sim.Event
	owed           int
	bufs           [2][]*packet.Packet
	bufLast        [2]uint64
	cur            int
}

// handoffChunkLen fills a 4,096-byte size class with 32-byte entries and
// the chunk's header.
const handoffChunkLen = 127

// handoffChunk is a run of handoffs. The producer writes keys[i] and
// pkts[i] and then publishes n; n reaches handoffChunkLen only after next
// is linked. The consumer clears pkts[i] of an arrival it gave a keyed
// event, and sets done when its cursors have left the chunk.
type handoffChunk struct {
	keys  [handoffChunkLen]sim.EventKey
	pkts  [handoffChunkLen]*packet.Packet
	n     atomic.Int32
	done  atomic.Bool
	next  atomic.Pointer[handoffChunk]
	maxAt sim.Time // producer-private: the latest arrival written
}

// lendRing is how many lend records a mailbox holds: one per destination
// step for three lookaheads, with room to spare (see adoptedBy).
const lendRing = 32

// lendRecord is one lend: the structs sent home and the destination's
// clock when it sent them.
type lendRecord struct {
	at   sim.Time
	pkts []*packet.Packet
}

// NewMailbox creates the mailbox delivering over the cut link l to
// l.To, in the network l.To is bound to (see Network.Bind).
func NewMailbox(l *Link) *Mailbox {
	return &Mailbox{
		destLink:  &Link{Index: l.Index, ID: l.ID, From: l.From, To: l.To, net: l.To.net},
		lookahead: l.Delay,
	}
}

// push records one handoff. Called by the source shard inside the
// transmit-complete event.
func (m *Mailbox) push(net *Network, p *packet.Packet, key sim.EventKey) {
	c := m.tail
	if c == nil {
		c = new(handoffChunk)
		m.tail, m.oldest = c, c
		m.first.Store(c)
	}
	i := m.fill
	c.keys[i], c.pkts[i] = key, p
	c.maxAt = max(c.maxAt, key.At)
	if m.fill = i + 1; m.fill == handoffChunkLen {
		next := m.chunk(net.Eng.Now())
		c.next.Store(next)
		m.tail, m.fill = next, 0
	}
	c.n.Store(int32(i + 1))
	net.lent++
}

// chunk returns an empty chunk for the producer: its oldest one when the
// destination is done with it, or a new one. Every arrival in the oldest
// lying a lookahead behind now says so by the simulated clock alone: the
// coordinator lets the producer run to now only once the destination has
// published a clock within a lookahead of it, having executed every
// event before that clock. The chunk's done flag confirms it, for a
// mailbox driven without a coordinator.
func (m *Mailbox) chunk(now sim.Time) *handoffChunk {
	if o := m.oldest; o != m.tail && o.maxAt <= now-m.lookahead && o.done.Load() {
		m.oldest = o.next.Load()
		o.next.Store(nil)
		o.done.Store(false)
		o.n.Store(0)
		o.maxAt = 0
		return o
	}
	return new(handoffChunk)
}

// adopt takes into pool, the source shard's, the lend records sent at
// least a lookahead before now.
func (m *Mailbox) adopt(pool *packet.Pool, now sim.Time) {
	k0, lends := m.adopted.Load(), m.lends.Load()
	k := k0
	for ; k < lends; k++ {
		r := &m.ring[k%lendRing]
		if r.at > now-m.lookahead {
			break
		}
		pool.Adopt(r.pkts)
	}
	if k != k0 {
		m.adopted.Store(k)
	}
}

// home counts the structs lent to the source and not yet adopted. Call
// it at a control point.
func (m *Mailbox) home() (n uint64) {
	for k := m.adopted.Load(); k < m.lends.Load(); k++ {
		n += uint64(len(m.ring[k%lendRing].pkts))
	}
	return n
}

// Drain moves every pending arrival onto the FIFO, sends home the
// empties owed, and reports whether any arrival lands at or before
// deadline. Called by the destination shard before it runs up to
// deadline.
func (m *Mailbox) Drain(deadline sim.Time) bool {
	net := m.destLink.net
	m.lend(net, deadline)
	c := m.read
	if c == nil {
		if c = m.first.Load(); c == nil {
			return false
		}
		m.read, m.head = c, c
	}
	n, hit := 0, false
	for {
		avail := int(c.n.Load())
		for ; m.readAt < avail; m.readAt++ {
			k := c.keys[m.readAt]
			n++
			hit = hit || k.At <= deadline
			if m.queued > 0 && k.At < m.tailAt {
				// A lowered delay put this arrival ahead of the FIFO's
				// tail: the calendar orders it.
				net.Eng.Inject(k, (*keyedArrive)(m), c.pkts[m.readAt])
				c.pkts[m.readAt] = nil
				net.keyed++
				continue
			}
			m.queued++
			m.tailAt = k.At
		}
		if avail < handoffChunkLen {
			break
		}
		c = c.next.Load() // linked before the count reached the end
		m.read, m.readAt = c, 0
	}
	if n == 0 {
		return false
	}
	// Runtime-plane accounting, written on the destination's goroutine:
	// handoff volume and the deepest batch any drain saw.
	// Shard-layout- and timing-dependent by nature.
	cells := net.Cells
	cells.Add(obs.NetsimHandoffBatches, 1)
	cells.Add(obs.NetsimHandoffPackets, uint64(n))
	cells.SetMax(obs.NetsimMailboxDepthHWM, uint64(n))
	net.fifoHWM = max(net.fifoHWM, uint64(m.queued))
	if !m.ev.Pending() && m.queued > 0 {
		m.arm()
	}
	return hit
}

// lend sends home, in the next lend record, as many idle structs of the
// destination's pool as it owes. The records are carved from two
// buffers in turn, and a record, or a buffer, is written again only once
// the source has adopted what it held (adoptedBy).
func (m *Mailbox) lend(net *Network, deadline sim.Time) {
	n := min(m.owed, net.Pool.Len())
	if n == 0 {
		return
	}
	k := m.lends.Load()
	if k >= lendRing && !m.adoptedBy(k-lendRing, deadline) {
		return
	}
	b := m.bufs[m.cur]
	if len(b)+n > cap(b) {
		if o := 1 - m.cur; m.bufLast[o] == 0 || m.adoptedBy(m.bufLast[o]-1, deadline) {
			m.cur, b = o, m.bufs[o][:0]
		}
		if len(b)+n > cap(b) {
			// The records still carved from this buffer keep its array.
			b = make([]*packet.Packet, 0, max(2*cap(b), n, lendBufMin))
		}
	}
	start := len(b)
	b = net.Pool.Lend(b, n)
	m.bufs[m.cur], m.bufLast[m.cur] = b, k+1
	r := &m.ring[k%lendRing]
	r.at, r.pkts = net.Eng.Now(), b[start:len(b):len(b)]
	m.owed -= n
	net.sentHome += uint64(n)
	m.lends.Store(k + 1)
}

// lendBufMin is the least capacity of a lend buffer.
const lendBufMin = 64

// adoptedBy reports whether the source has adopted lend record k, as the
// destination may rely on before a step ending at deadline: every record
// three lookaheads old has been. The source adopts each record before
// its first step that begins a lookahead after the record's instant, and
// the coordinator lets this shard run up to deadline only once the
// source has published a clock a lookahead short of it, so the answer
// depends on the simulated clock alone. The count the source publishes
// confirms it, for a mailbox driven without a coordinator.
func (m *Mailbox) adoptedBy(k uint64, deadline sim.Time) bool {
	if m.lends.Load()-k > lendRing {
		return true // its slot has been written again
	}
	return m.ring[k%lendRing].at <= deadline-3*m.lookahead && m.adopted.Load() > k
}

// arm schedules the FIFO's head under the key its handoff minted.
func (m *Mailbox) arm() {
	c, i := m.head, m.headAt
	m.destLink.net.Eng.InjectEvent(&m.ev, c.keys[i], (*mailboxArrive)(m), c.pkts[i])
}

// advance moves the FIFO's head past the arrival that fired and past the
// arrivals given keyed events, up to the drain cursor, leaving every
// chunk it finishes to its producer.
func (m *Mailbox) advance() {
	for m.headAt++; ; m.headAt++ {
		if m.headAt == handoffChunkLen {
			c := m.head
			m.head, m.headAt = c.next.Load(), 0
			c.done.Store(true)
		}
		if (m.head == m.read && m.headAt == m.readAt) || m.head.pkts[m.headAt] != nil {
			return
		}
	}
}

// mailboxArrive dispatches the mailbox's owned event: the FIFO's head
// reaches the link's head end, and the next head takes the event.
type mailboxArrive Mailbox

func (h *mailboxArrive) OnEvent(_ sim.Time, arg any) {
	m := (*Mailbox)(h)
	m.advance()
	if m.queued--; m.queued > 0 {
		m.arm()
	}
	m.owed++
	l := m.destLink
	l.net.arrive(arg.(*packet.Packet), l.To, l)
}

// keyedArrive dispatches an arrival's own keyed event.
type keyedArrive Mailbox

func (h *keyedArrive) OnEvent(_ sim.Time, arg any) {
	m := (*Mailbox)(h)
	m.owed++
	l := m.destLink
	l.net.arrive(arg.(*packet.Packet), l.To, l)
}
