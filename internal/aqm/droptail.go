// Package aqm provides active queue management building blocks: a
// byte-limited DropTail queue, the RED algorithm with the paper's
// Figure 3 parameters, and the attack detectors of §4.3.1 (EWMA packet
// loss rate, Figure 19; EWMA link utilization).
package aqm

import (
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// DropTail is a FIFO queue that drops arriving packets once the buffer
// holds LimitBytes.
type DropTail struct {
	queue.Drops
	q     queue.Ring
	bytes int
	hwm   int
	limit int
	stats queue.Stats
}

// NewDropTail returns a DropTail queue holding at most limitBytes.
func NewDropTail(limitBytes int) *DropTail {
	return &DropTail{limit: limitBytes}
}

// Enqueue appends p unless the buffer is full, when it discards p as
// "tail".
func (d *DropTail) Enqueue(p *packet.Packet, now sim.Time) bool {
	if d.bytes+int(p.Size) > d.limit {
		d.Discard(&d.stats, p, now, "tail")
		return false
	}
	d.q.Push(p)
	d.bytes += int(p.Size)
	if d.bytes > d.hwm {
		d.hwm = d.bytes
	}
	d.stats.Enqueued++
	return true
}

// Dequeue pops the oldest packet.
func (d *DropTail) Dequeue(now sim.Time) (*packet.Packet, sim.Time) {
	p := d.q.Pop()
	if p == nil {
		return nil, 0
	}
	d.bytes -= int(p.Size)
	d.stats.Dequeued++
	d.stats.DequeuedBytes += uint64(p.Size)
	return p, 0
}

// Len returns the number of queued packets.
func (d *DropTail) Len() int { return d.q.Len() }

// Bytes returns the number of queued bytes.
func (d *DropTail) Bytes() int { return d.bytes }

// Stats returns cumulative counters.
func (d *DropTail) Stats() queue.Stats { return d.stats }

// HighWater returns the highest backlog in bytes the queue reached.
func (d *DropTail) HighWater() int { return d.hwm }
