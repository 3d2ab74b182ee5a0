package fq

import (
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// HDRR is two-level hierarchical deficit round robin: the outer level
// shares bandwidth equally among outer keys (source ASes in TVA+ and
// StopIt), and each outer class shares its allocation equally among inner
// keys (senders). This is the "two-level hierarchical fair queuing"
// described in §6.3 of the paper.
type HDRR struct {
	queue.Drops
	outerKey   KeyFunc
	innerKey   KeyFunc
	quantum    int
	limitBytes int
	classes    map[uint64]*hdrrClass
	active     []*hdrrClass
	bytes      int
	hwm        int
	stats      queue.Stats
}

type hdrrClass struct {
	inner   *DRR
	deficit int
	active  bool
}

// NewHDRR returns a hierarchical DRR queue.
func NewHDRR(outer, inner KeyFunc, quantum, limitBytes int) *HDRR {
	return &HDRR{
		outerKey:   outer,
		innerKey:   inner,
		quantum:    quantum,
		limitBytes: limitBytes,
		classes:    make(map[uint64]*hdrrClass),
	}
}

// Enqueue adds p to its (outer, inner) queue. While the shared buffer
// is full it evicts from the largest class ("fq-evict"), or discards p
// ("fq-full") when no class holds more than p.
func (h *HDRR) Enqueue(p *packet.Packet, now sim.Time) bool {
	if h.bytes+int(p.Size) > h.limitBytes {
		victim := h.largest()
		if victim == nil || victim.inner.Bytes() <= int(p.Size) {
			h.Discard(&h.stats, p, now, "fq-full")
			return false
		}
		h.evictFrom(victim, int(p.Size), now)
	}
	// The inner queues share h's limit and together hold what h holds,
	// so once h has room the inner queue takes p without evicting.
	c := h.class(p)
	c.inner.Enqueue(p, now)
	h.bytes += int(p.Size)
	if h.bytes > h.hwm {
		h.hwm = h.bytes
	}
	h.stats.Enqueued++
	if !c.active {
		c.active = true
		c.deficit = 0
		h.active = append(h.active, c)
	}
	return true
}

// evictFrom removes at least want bytes from the tails of the class's
// longest inner flows.
func (h *HDRR) evictFrom(c *hdrrClass, want int, now sim.Time) {
	for freed := 0; freed < want; {
		f := c.inner.longest()
		if f == nil {
			return
		}
		n := c.inner.evict(f, now)
		h.bytes -= n
		h.stats.Dropped++
		h.stats.DroppedBytes += uint64(n)
		freed += n
	}
}

// SetDropper installs d for h and for its classes' DRRs, which make the
// evictions.
func (h *HDRR) SetDropper(d queue.Dropper) {
	h.Dropper = d
	for _, c := range h.classes {
		c.inner.SetDropper(d)
	}
}

func (h *HDRR) class(p *packet.Packet) *hdrrClass {
	k := h.outerKey(p)
	c := h.classes[k]
	if c == nil {
		c = &hdrrClass{
			// Inner queues share the global buffer; give each an
			// effectively unlimited private cap.
			inner: NewDRR(h.innerKey, h.quantum, h.limitBytes),
		}
		c.inner.SetDropper(h.Dropper)
		h.classes[k] = c
	}
	return c
}

// largest returns the active class with the most buffered bytes.
func (h *HDRR) largest() *hdrrClass {
	var best *hdrrClass
	for _, c := range h.active {
		if c.inner.Bytes() > 0 && (best == nil || c.inner.Bytes() > best.inner.Bytes()) {
			best = c
		}
	}
	return best
}

// Dequeue serves classes in DRR order, each class serving its inner flows
// in DRR order.
func (h *HDRR) Dequeue(now sim.Time) (*packet.Packet, sim.Time) {
	for len(h.active) > 0 {
		c := h.active[0]
		if c.inner.Bytes() == 0 {
			c.active = false
			h.active = h.active[1:]
			continue
		}
		// Peek at the inner DRR's next packet size via its head flow. A
		// conservative estimate (max packet) keeps the code simple: use
		// the quantum when unknown.
		if c.deficit < h.quantum {
			c.deficit += h.quantum
			h.active = append(h.active[1:], c)
			continue
		}
		p, _ := c.inner.Dequeue(now)
		if p == nil {
			c.active = false
			h.active = h.active[1:]
			continue
		}
		c.deficit -= int(p.Size)
		h.bytes -= int(p.Size)
		h.stats.Dequeued++
		h.stats.DequeuedBytes += uint64(p.Size)
		if c.inner.Bytes() == 0 {
			c.active = false
			c.deficit = 0
			h.active = h.active[1:]
		}
		return p, 0
	}
	return nil, 0
}

// Len returns the total queued packets.
func (h *HDRR) Len() int {
	n := 0
	for _, c := range h.classes {
		n += c.inner.Len()
	}
	return n
}

// Bytes returns the total queued bytes.
func (h *HDRR) Bytes() int { return h.bytes }

// Stats returns cumulative counters.
func (h *HDRR) Stats() queue.Stats { return h.stats }

// HighWater returns the highest backlog in bytes the queue reached.
func (h *HDRR) HighWater() int { return h.hwm }
