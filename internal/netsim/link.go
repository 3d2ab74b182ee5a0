package netsim

import (
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// Link is a unidirectional link: a queue followed by a transmitter with
// serialization delay Size*8/Rate and propagation delay Delay. A nil Q is
// the default unbounded FIFO, not needed yet: a packet that finds the
// transmitter idle is transmitted directly, and the first to find it
// busy materialises a *defaultQueue, which stays. Any other Q is a
// discipline the caller installed with SetQueue, and sees every
// packet. Install before traffic flows: packets waiting in a default
// queue that is replaced are stranded, as they always were.
//
// The link is one scheduling origin, keyed by its index. Its
// transmit-complete and its per-packet propagation are the engine's
// pooled one-shot events, so steady-state forwarding schedules without
// allocating and the link owns no event. The one role that needs a
// cancellable handle — the retry of a backlogged queue that is not yet
// eligible, which only rate-capped disciplines ask for — lives in the
// link's cold block with the two hooks only bottleneck and cut links
// set; a link that needs none of the three never makes the block.
type Link struct {
	Index int
	ID    packet.LinkID
	// sending says the transmitter is busy: a transmit-complete is
	// pending, and no retry is.
	sending bool
	From    *Node
	To      *Node
	// net is the network of the shard owning From, which transmits the
	// link; it sits beside To: an arrival reads exactly these two, on a
	// struct that has gone cold while the packet propagated (a cut link's
	// arrivals read its mailbox's copy instead, bound to To's network).
	net   *Network
	Rate  int64 // bits per second; must be positive
	Delay sim.Time
	Q     queue.Queue

	// cold holds what most links never need; nil until one is set.
	cold *linkCold

	// org keys every event of the link: transmit-complete, retry and
	// propagation (a cut link mints its handoff keys from it too), all
	// scheduled on the shard owning From.
	org sim.Origin

	// TxPackets and TxBytes count completed transmissions.
	TxPackets uint64
	TxBytes   uint64
}

// linkCold is a link's rarely set state, made on first use.
type linkCold struct {
	// retry is the owned not-yet-eligible retry event.
	retry sim.Event

	// onTransmit, when set, observes each packet as transmission begins
	// (see SetOnTransmit).
	onTransmit func(p *packet.Packet, l *Link)

	// mailbox, when set, marks this link as a cut link of a partitioned
	// run whose To node lives on another shard: completed transmissions
	// hand the packet off instead of scheduling a local arrival.
	mailbox *Mailbox
}

// coldBlock returns the link's cold block, making it on first use.
func (l *Link) coldBlock() *linkCold {
	if l.cold == nil {
		l.cold = &linkCold{}
	}
	return l.cold
}

// linkTx dispatches a pooled transmit-complete event.
type linkTx Link

func (h *linkTx) OnEvent(_ sim.Time, arg any) {
	(*Link)(h).txDone(arg.(*packet.Packet))
}

// linkArrive dispatches a pooled propagation event: the packet reaches
// the link's head end.
type linkArrive Link

func (h *linkArrive) OnEvent(_ sim.Time, arg any) {
	l := (*Link)(h)
	l.net.arrive(arg.(*packet.Packet), l.To, l)
}

// linkRetry dispatches the cold block's not-yet-eligible retry.
type linkRetry Link

func (h *linkRetry) OnEvent(sim.Time, any) {
	(*Link)(h).tryTransmit()
}

// defaultQueue is the default FIFO and its ring's first slots in one
// allocation; the type tells it from an installed discipline.
type defaultQueue struct {
	queue.FIFO
	slots [8]*packet.Packet
}

// Send transmits p at once when the transmitter is idle — the default
// queue is then empty, txDone drains it first — and no discipline is
// installed, leaving what the FIFO would have (trace record, high-water
// mark); otherwise it enqueues p and starts the transmitter
// if idle. A packet the queue refuses has gone to Drop.
func (l *Link) Send(p *packet.Packet) {
	now := l.net.Eng.Now()
	if _, def := l.Q.(*defaultQueue); !l.sending && (def || l.Q == nil) {
		l.net.cutThrough++
		l.net.cutHWM = max(l.net.cutHWM, uint64(p.Size))
		if l.net.Rec.Sampled(uint64(p.Flow)) {
			l.net.Rec.Record(int64(now), uint64(p.Flow), l.Label(), obs.HopEnqueue, "")
		}
		l.transmit(p, now)
		return
	}
	l.net.queued++
	if l.Q == nil {
		dq := &defaultQueue{}
		dq.StartOn(dq.slots[:])
		l.Q = dq
	}
	if !l.Q.Enqueue(p, now) {
		return
	}
	if l.net.Rec.Sampled(uint64(p.Flow)) {
		l.net.Rec.Record(int64(now), uint64(p.Flow), l.Label(), obs.HopEnqueue, "")
	}
	l.tryTransmit()
}

// SetQueue installs q as the link's discipline, with the link as the
// Dropper of every packet q discards.
func (l *Link) SetQueue(q queue.Queue) {
	q.SetDropper(l)
	l.Q = q
}

// Drop ends a packet the link's queue discarded, refused on arrival or
// evicted: it counts the drop, traces it with its reason, shows it to
// Network.OnDrop and returns it to the packet pool. It is the one place
// a queue drop is counted.
func (l *Link) Drop(p *packet.Packet, now sim.Time, reason string) {
	l.net.Cells.Add(obs.NetsimDrops, 1)
	if l.net.Rec.Sampled(uint64(p.Flow)) {
		l.net.Rec.Record(int64(now), uint64(p.Flow), l.Label(), obs.HopDrop, reason)
	}
	if l.net.OnDrop != nil {
		l.net.OnDrop(p, l)
	}
	l.net.Release(p)
}

// Backlog returns the packets and bytes waiting in the link's queue.
func (l *Link) Backlog() (packets, bytes int) {
	if l.Q == nil {
		return 0, 0
	}
	return l.Q.Len(), l.Q.Bytes()
}

// Label names the link in traces: "from->to".
func (l *Link) Label() string { return l.From.String() + "->" + l.To.String() }

// tryTransmit pulls the next eligible packet from the queue and transmits
// it. If the queue is backlogged but not yet eligible (rate-capped
// channel), a retry is scheduled at the queue's hint.
func (l *Link) tryTransmit() {
	if l.sending || l.Q == nil {
		return
	}
	now := l.net.Eng.Now()
	p, retryAt := l.Q.Dequeue(now)
	if p == nil {
		if retryAt > now {
			l.scheduleRetry(retryAt)
		}
		return
	}
	if l.cold != nil && l.cold.retry.Pending() {
		l.cold.retry.Cancel()
	}
	l.transmit(p, now)
}

// transmit starts serializing p on the idle transmitter.
func (l *Link) transmit(p *packet.Packet, now sim.Time) {
	if l.cold != nil && l.cold.onTransmit != nil {
		l.cold.onTransmit(p, l)
	}
	l.sending = true
	l.org.Schedule(now+sim.TxTime(int(p.Size), l.Rate), (*linkTx)(l), p)
}

// txDone completes p's serialization: launch its propagation event (or
// hand the packet off to the destination shard over a cut link) and
// start on the next queued packet.
func (l *Link) txDone(p *packet.Packet) {
	l.sending = false
	l.TxPackets++
	l.TxBytes += uint64(p.Size)
	l.net.Cells.Add(obs.NetsimTxPackets, 1)
	l.net.Cells.Add(obs.NetsimTxBytes, uint64(p.Size))
	now := l.net.Eng.Now()
	if l.cold != nil && l.cold.mailbox != nil {
		// The handoff key is exactly what a local propagation event's
		// scheduling key would have been, so the destination engine
		// executes the arrival where a single global engine would have.
		l.cold.mailbox.push(l.net, p, l.org.HandoffKey(now+l.Delay))
	} else {
		l.org.Schedule(now+l.Delay, (*linkArrive)(l), p)
	}
	l.tryTransmit()
}

// Origin returns the link's scheduling origin, for machinery that lives
// on the link (a bottleneck's detection ticker).
func (l *Link) Origin() *sim.Origin { return &l.org }

// SetMailbox marks the link as a cut link delivering into mb's
// destination shard. Partitioned-run wiring only.
func (l *Link) SetMailbox(mb *Mailbox) {
	l.coldBlock().mailbox = mb
	l.net.outboxes = append(l.net.outboxes, mb)
}

// SetOnTransmit installs fn (nil removes it) to observe each packet as
// its transmission begins — the hook bottleneck routers use to update
// congestion policing feedback in the mon state (§4.3.2).
func (l *Link) SetOnTransmit(fn func(p *packet.Packet, l *Link)) {
	l.coldBlock().onTransmit = fn
}

// SetRate changes the link capacity at the current instant. The packet
// currently serializing (if any) completes at the old rate — its
// transmit-complete event is already scheduled — and every subsequent
// transmission serializes at the new rate; tryTransmit reads l.Rate per
// packet, so no rescheduling is needed. Must be called while no event
// is executing (a scenario control point), or determinism across shard
// counts is forfeit. It panics on a non-positive rate.
func (l *Link) SetRate(bps int64) {
	if bps <= 0 {
		panic("netsim: SetRate requires a positive rate")
	}
	l.Rate = bps
}

// SetDelay changes the link propagation delay at the current instant.
// In-flight packets keep their scheduled arrival; subsequent
// transmissions propagate under the new delay. On a cut link of a
// partitioned run the new delay must stay at or above the partition's
// lookahead — the scenario layer validates this before applying. It
// panics on a non-positive delay.
func (l *Link) SetDelay(d sim.Time) {
	if d <= 0 {
		panic("netsim: SetDelay requires a positive delay")
	}
	l.Delay = d
}

// scheduleRetry arms (or re-arms) the not-yet-eligible retry timer; an
// earlier hint supersedes a pending retry, a later one leaves it.
func (l *Link) scheduleRetry(at sim.Time) {
	ev := &l.coldBlock().retry
	if ev.Pending() {
		if ev.Time() <= at {
			return
		}
		ev.Cancel()
	}
	l.org.ScheduleEvent(ev, at, (*linkRetry)(l), nil)
}
