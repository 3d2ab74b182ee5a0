// Package fq implements Deficit Round Robin fair queuing (Shreedhar &
// Varghese, SIGCOMM 1995) with O(1) per-packet work, plus the two-level
// hierarchical variant (first by source AS, then by sender) that TVA+ and
// StopIt use at congested links and that NetFence's §4.5 compromised-AS
// fallback relies on.
package fq

import (
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// KeyFunc maps a packet to its fair-queuing flow key. Common keys:
// BySender, ByDest, BySourceAS.
type KeyFunc func(p *packet.Packet) uint64

// BySender keys packets by source address (per-sender fairness).
func BySender(p *packet.Packet) uint64 { return uint64(uint32(p.Src)) }

// ByDest keys packets by destination address (TVA+'s regular channel).
func ByDest(p *packet.Packet) uint64 { return uint64(uint32(p.Dst)) }

// BySourceAS keys packets by origin AS (per-AS isolation, §4.5).
func BySourceAS(p *packet.Packet) uint64 { return uint64(uint32(p.SrcAS)) }

type flowQ struct {
	q       queue.Ring
	bytes   int
	deficit int
	active  bool
}

// DRR is a deficit-round-robin fair queue over dynamically discovered
// flows. When the shared buffer overflows it drops from the longest flow
// queue, which preserves fairness under unresponsive floods.
type DRR struct {
	queue.Drops
	key        KeyFunc
	quantum    int
	limitBytes int
	flows      map[uint64]*flowQ
	active     []*flowQ // round-robin list of backlogged flows
	bytes      int
	stats      queue.Stats
}

// NewDRR returns a DRR queue with the given flow key, quantum (use the
// maximum packet size for O(1) behaviour) and shared buffer limit.
func NewDRR(key KeyFunc, quantum, limitBytes int) *DRR {
	return &DRR{
		key:        key,
		quantum:    quantum,
		limitBytes: limitBytes,
		flows:      make(map[uint64]*flowQ),
	}
}

// Enqueue adds p to its flow's queue. While the shared buffer is full it
// evicts the tail of the longest flow ("fq-evict"), or discards p itself
// ("fq-full") when that flow is p's own and no longer than p.
func (d *DRR) Enqueue(p *packet.Packet, now sim.Time) bool {
	for d.bytes+int(p.Size) > d.limitBytes {
		victim := d.longest()
		// When the incoming packet's own flow is (one of) the longest,
		// dropping the newcomer is the cheaper equivalent.
		if victim == nil || victim.bytes <= int(p.Size) && victim == d.flow(p) {
			d.Discard(&d.stats, p, now, "fq-full")
			return false
		}
		d.evict(victim, now)
	}
	f := d.flow(p)
	f.q.Push(p)
	f.bytes += int(p.Size)
	d.bytes += int(p.Size)
	d.stats.Enqueued++
	if !f.active {
		f.active = true
		f.deficit = 0
		d.active = append(d.active, f)
	}
	return true
}

// evict discards the tail packet of the backlogged flow f as "fq-evict"
// and returns its size.
func (d *DRR) evict(f *flowQ, now sim.Time) int {
	p := f.q.PopTail()
	n := int(p.Size)
	f.bytes -= n
	d.bytes -= n
	d.Discard(&d.stats, p, now, "fq-evict")
	return n
}

func (d *DRR) flow(p *packet.Packet) *flowQ {
	k := d.key(p)
	f := d.flows[k]
	if f == nil {
		f = &flowQ{}
		d.flows[k] = f
	}
	return f
}

// longest returns the backlogged flow with the most bytes.
func (d *DRR) longest() *flowQ {
	var best *flowQ
	for _, f := range d.active {
		if f.q.Len() > 0 && (best == nil || f.bytes > best.bytes) {
			best = f
		}
	}
	return best
}

// Dequeue serves flows in deficit round robin order.
func (d *DRR) Dequeue(now sim.Time) (*packet.Packet, sim.Time) {
	for len(d.active) > 0 {
		f := d.active[0]
		head := f.q.Peek()
		if head == nil {
			// Flow drained: retire it from the round.
			f.active = false
			d.active = d.active[1:]
			continue
		}
		if f.deficit < int(head.Size) {
			f.deficit += d.quantum
			// Move to the tail of the round.
			d.active = append(d.active[1:], f)
			continue
		}
		f.q.Pop()
		f.deficit -= int(head.Size)
		f.bytes -= int(head.Size)
		d.bytes -= int(head.Size)
		d.stats.Dequeued++
		d.stats.DequeuedBytes += uint64(head.Size)
		if f.q.Len() == 0 {
			f.active = false
			f.deficit = 0
			d.active = d.active[1:]
		}
		return head, 0
	}
	return nil, 0
}

// Len returns the total number of queued packets.
func (d *DRR) Len() int {
	n := 0
	for _, f := range d.flows {
		n += f.q.Len()
	}
	return n
}

// Bytes returns the total queued bytes.
func (d *DRR) Bytes() int { return d.bytes }

// Stats returns cumulative counters.
func (d *DRR) Stats() queue.Stats { return d.stats }
