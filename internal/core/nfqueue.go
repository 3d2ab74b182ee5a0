package core

import (
	"math/rand/v2"

	"netfence/internal/aqm"
	"netfence/internal/fq"
	"netfence/internal/netsim"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/ratelimit"
	"netfence/internal/sim"
)

// nfQueue is a NetFence router's per-link queue with the three channels
// of Figure 2:
//
//   - request: strict priority by level, hard-capped at RequestCapFrac of
//     the link capacity via a byte-credit bucket (§4.2);
//   - regular: RED with the Figure 3 parameters, optionally replaced by
//     per-source-AS DRR when the §4.5 compromised-AS fallback engages;
//   - legacy: DropTail, served only when the other channels are idle.
//
// Each channel's drops reach the link's Dropper through a conversion of
// the queue (regularDrops, fallbackDrops, legacyDrops) that first counts
// them on the channel's queue_drop_* counter.
type nfQueue struct {
	queue.Drops
	rate int64

	// Request channel: one FIFO ring per priority level.
	req      []queue.Ring
	reqBytes int
	reqLimit int
	reqStats queue.Stats

	// Credit bucket metering the request channel's capacity share,
	// in bytes.
	credit     float64
	creditMax  float64
	creditRate float64 // bytes per second
	creditAt   sim.Time

	// Regular channel.
	red        *aqm.RED
	fallback   *fq.HDRR
	fbLastDrop sim.Time
	// fbDropByAS attributes fallback-mode congestion to source ASes, so
	// feedback stamping punishes only the ASes actually overflowing
	// their per-AS queues (§4.5).
	fbDropByAS map[packet.ASID]sim.Time
	fbLimit    int

	// Legacy channel.
	legacy *aqm.DropTail

	// verify, when set, authenticates packets on enqueue (Passport);
	// failures are dropped.
	verify      func(p *packet.Packet) bool
	verifyFails uint64

	// cells is the observability counter store — the owning shard's
	// shared cells once protect() wires the queue onto a link, a private
	// scratch array for directly-constructed test queues.
	cells obs.Cells
	// net and label trace demotions (nil net = untraced); drops are
	// traced by the link.
	net   *netsim.Network
	label string
	hwm   int
}

func newNFQueue(rateBps int64, rng *rand.Rand) *nfQueue {
	redCfg := aqm.DefaultRED(rateBps)
	reqLimit := redCfg.LimitBytes / 20
	if reqLimit < 8_000 {
		reqLimit = 8_000
	}
	q := &nfQueue{
		rate:     rateBps,
		req:      make([]queue.Ring, int(ratelimit.MaxPrioLevel)+1),
		reqLimit: reqLimit,
		// The burst must cover full-size packets: regular packets with
		// invalid feedback are demoted onto this channel (§4.4).
		creditMax:  2 * packet.SizeData,
		creditRate: RequestCapFrac * float64(rateBps) / 8,
		red:        aqm.NewRED(redCfg, rng),
		fbLimit:    redCfg.LimitBytes,
		legacy:     aqm.NewDropTail(redCfg.LimitBytes / 10),
		cells:      obs.NewCells(),
	}
	q.credit = q.creditMax
	q.red.SetDropper((*regularDrops)(q))
	q.legacy.SetDropper((*legacyDrops)(q))
	return q
}

// The channels' Droppers: each counts a drop on its channel's counter
// and forwards it to the queue's own Dropper.
type (
	regularDrops  nfQueue
	fallbackDrops nfQueue
	legacyDrops   nfQueue
)

func (d *regularDrops) Drop(p *packet.Packet, now sim.Time, reason string) {
	d.cells.Add(obs.QueueDropRegular, 1)
	d.Forward(p, now, reason)
}

// Drop also charges the congestion to p's source AS (§4.5).
func (d *fallbackDrops) Drop(p *packet.Packet, now sim.Time, reason string) {
	d.fbLastDrop = now
	d.fbDropByAS[p.SrcAS] = now
	(*regularDrops)(d).Drop(p, now, reason)
}

func (d *legacyDrops) Drop(p *packet.Packet, now sim.Time, reason string) {
	d.cells.Add(obs.QueueDropLegacy, 1)
	d.Forward(p, now, reason)
}

// enableFallback swaps the regular channel to per-source-AS fair queuing
// (§4.5), migrating any queued packets.
func (q *nfQueue) enableFallback(now sim.Time) {
	if q.fallback != nil {
		return
	}
	q.fallback = fq.NewHDRR(fq.BySourceAS, fq.BySender, packet.SizeData, q.fbLimit)
	q.fallback.SetDropper((*fallbackDrops)(q))
	q.fbDropByAS = make(map[packet.ASID]sim.Time)
	for {
		p, _ := q.red.Dequeue(now)
		if p == nil {
			break
		}
		q.fallback.Enqueue(p, now)
	}
}

// lastCongestedForAS reports the most recent congestion instant charged
// to an AS while the fallback is active.
func (q *nfQueue) lastCongestedForAS(as packet.ASID) (sim.Time, bool) {
	t, ok := q.fbDropByAS[as]
	return t, ok
}

// fallbackActive reports whether per-AS queuing is engaged.
func (q *nfQueue) fallbackActive() bool { return q.fallback != nil }

// Enqueue routes the packet to its channel, keeping the backlog
// histogram and high-water mark on admission.
func (q *nfQueue) Enqueue(p *packet.Packet, now sim.Time) bool {
	ok := q.enqueue(p, now)
	if ok {
		b := q.Bytes()
		q.cells.ObserveBacklog(uint64(b))
		if b > q.hwm {
			q.hwm = b
		}
	}
	return ok
}

// enqueue routes the packet to its channel.
func (q *nfQueue) enqueue(p *packet.Packet, now sim.Time) bool {
	// §4.4 demotion: a "regular" packet that no access router ever
	// stamped carries no verifiable congestion policing feedback.
	// Senders in legacy (non-deploying) ASes bypass policing entirely,
	// so their claim to the regular channel is unenforceable — rewrite
	// the header to legacy and serve them best-effort. (Packets that DO
	// present credentials are authenticated below and dropped on
	// forgery; absence of credentials is indistinguishable from a
	// legacy host and must not be punished harder than best-effort.)
	// "Never stamped" is the all-zero feedback element: any access
	// stamp fills the MAC and token fields with CMAC output, so a
	// false demotion needs both truncated MACs to be zero (~2^-64).
	if p.Kind == packet.KindRegular && p.FB == (packet.Feedback{}) && !p.HasMFB() {
		p.Kind = packet.KindLegacy
		q.cells.Add(obs.CoreDemotedLegacy, 1)
		if q.net != nil && q.net.Rec.Sampled(uint64(p.Flow)) {
			q.net.Rec.Record(int64(now), uint64(p.Flow), q.label, obs.HopDemote, "unstamped-regular->legacy")
		}
	}
	// Legacy traffic carries no Passport trailer either: skip source
	// authentication; it rides the best-effort channel regardless.
	legacy := p.Kind != packet.KindRequest && p.Kind != packet.KindRegular
	if !legacy && q.verify != nil && !q.verify(p) {
		q.verifyFails++
		q.cells.Add(obs.CoreMACFail, 1)
		q.Forward(p, now, "mac-fail")
		return false
	}
	switch p.Kind {
	case packet.KindRequest:
		return q.enqueueRequest(p, now)
	case packet.KindRegular:
		if q.fallback != nil {
			return q.fallback.Enqueue(p, now)
		}
		return q.red.Enqueue(p, now)
	default:
		return q.legacy.Enqueue(p, now)
	}
}

// enqueueRequest appends to the packet's priority level, displacing
// lower-priority packets ("request-evict") when the channel is full, or
// discarding p ("request-full") when none sits below it.
func (q *nfQueue) enqueueRequest(p *packet.Packet, now sim.Time) bool {
	lvl := int(p.Prio)
	if lvl >= len(q.req) {
		lvl = len(q.req) - 1
	}
	for q.reqBytes+int(p.Size) > q.reqLimit {
		// Evict from the lowest occupied level below the newcomer.
		low := -1
		for i := 0; i < lvl; i++ {
			if q.req[i].Len() > 0 {
				low = i
				break
			}
		}
		q.cells.Add(obs.QueueDropRequest, 1)
		if low < 0 {
			q.Discard(&q.reqStats, p, now, "request-full")
			return false
		}
		victim := q.req[low].PopTail()
		q.reqBytes -= int(victim.Size)
		q.Discard(&q.reqStats, victim, now, "request-evict")
	}
	q.req[lvl].Push(p)
	q.reqBytes += int(p.Size)
	q.reqStats.Enqueued++
	return true
}

func (q *nfQueue) refillCredit(now sim.Time) {
	if now > q.creditAt {
		q.credit += q.creditRate * (now - q.creditAt).Seconds()
		if q.credit > q.creditMax {
			q.credit = q.creditMax
		}
	}
	q.creditAt = now
}

// peekRequest returns the highest-priority queued request.
func (q *nfQueue) peekRequest() *packet.Packet {
	for i := len(q.req) - 1; i >= 0; i-- {
		if p := q.req[i].Peek(); p != nil {
			return p
		}
	}
	return nil
}

func (q *nfQueue) popRequest() *packet.Packet {
	for i := len(q.req) - 1; i >= 0; i-- {
		if q.req[i].Len() > 0 {
			p := q.req[i].Pop()
			q.reqBytes -= int(p.Size)
			q.reqStats.Dequeued++
			q.reqStats.DequeuedBytes += uint64(p.Size)
			return p
		}
	}
	return nil
}

// Dequeue serves request packets within their capacity share, then
// regular, then legacy. When only requests are queued and the credit
// bucket is empty, it returns a retry hint — the request channel is a
// hard (non-work-conserving) cap, so request floods cannot seize the
// whole link even when it is otherwise idle.
func (q *nfQueue) Dequeue(now sim.Time) (*packet.Packet, sim.Time) {
	q.refillCredit(now)
	if head := q.peekRequest(); head != nil && q.credit >= float64(head.Size) {
		q.credit -= float64(head.Size)
		return q.popRequest(), 0
	}
	if q.fallback != nil {
		if p, _ := q.fallback.Dequeue(now); p != nil {
			return p, 0
		}
	} else if p, _ := q.red.Dequeue(now); p != nil {
		return p, 0
	}
	if p, _ := q.legacy.Dequeue(now); p != nil {
		return p, 0
	}
	if head := q.peekRequest(); head != nil {
		need := float64(head.Size) - q.credit
		wait := sim.Time(need / q.creditRate * float64(sim.Second))
		if wait < sim.Microsecond {
			wait = sim.Microsecond
		}
		return nil, now + wait
	}
	return nil, 0
}

// Len returns total queued packets.
func (q *nfQueue) Len() int {
	n := q.legacy.Len()
	if q.fallback != nil {
		n += q.fallback.Len()
	} else {
		n += q.red.Len()
	}
	for i := range q.req {
		n += q.req[i].Len()
	}
	return n
}

// Bytes returns total queued bytes.
func (q *nfQueue) Bytes() int {
	b := q.reqBytes + q.legacy.Bytes()
	if q.fallback != nil {
		b += q.fallback.Bytes()
	} else {
		b += q.red.Bytes()
	}
	return b
}

// Stats returns counters aggregated over all channels. (Accumulated
// without intermediate slices: detectors poll stats every tick.)
func (q *nfQueue) Stats() queue.Stats {
	s := q.RegularStats().Add(q.reqStats).Add(q.legacy.Stats())
	s.Dropped += q.verifyFails
	return s
}

// RegularStats returns the regular channel's counters — the loss signal
// of Figure 19's attack detector.
func (q *nfQueue) RegularStats() queue.Stats {
	s := q.red.Stats()
	if q.fallback != nil {
		s = s.Add(q.fallback.Stats())
	}
	return s
}

// HighWater returns the highest total backlog in bytes the queue
// reached.
func (q *nfQueue) HighWater() int { return q.hwm }

// lastCongested reports the most recent congestion instant of the
// regular channel.
func (q *nfQueue) lastCongested() (sim.Time, bool) {
	if q.fallback != nil {
		return q.fbLastDrop, q.fbLastDrop > 0
	}
	return q.red.LastCongested()
}
