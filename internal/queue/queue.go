// Package queue defines the queue discipline interface shared by links in
// the network simulator and the statistics every implementation exports.
// Implementations live in internal/aqm (DropTail, RED), internal/fq (DRR,
// hierarchical DRR) and internal/core (the NetFence three-channel queue).
package queue

import (
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Stats are cumulative counters exported by every queue.
type Stats struct {
	Enqueued      uint64
	Dequeued      uint64
	Dropped       uint64
	DequeuedBytes uint64
	DroppedBytes  uint64
}

// LossFraction returns drops/(drops+dequeues) since the counters in prev
// were captured — the regular-packet loss rate of Figure 19.
func (s Stats) LossFraction(prev Stats) float64 {
	drops := s.Dropped - prev.Dropped
	deqs := s.Dequeued - prev.Dequeued
	if drops+deqs == 0 {
		return 0
	}
	return float64(drops) / float64(drops+deqs)
}

// Add returns the sum of s and t, for a discipline built of channels.
func (s Stats) Add(t Stats) Stats {
	s.Enqueued += t.Enqueued
	s.Dequeued += t.Dequeued
	s.Dropped += t.Dropped
	s.DequeuedBytes += t.DequeuedBytes
	s.DroppedBytes += t.DroppedBytes
	return s
}

// Queue is a link's packet buffer and scheduling discipline.
//
// Dequeue returns the next packet to transmit, or nil. When it returns nil
// with a non-zero retry time, the queue holds packets that are not yet
// eligible (e.g. a rate-capped request channel); the link must try again
// at that time. A nil packet with zero retry means the queue is empty.
//
// Every packet the queue discards — refused by Enqueue, which then
// returns false, or evicted to make room — goes to the Dropper that
// SetDropper installed, exactly once and with its reason.
type Queue interface {
	Enqueue(p *packet.Packet, now sim.Time) bool
	Dequeue(now sim.Time) (*packet.Packet, sim.Time)
	Len() int
	Bytes() int
	Stats() Stats
	SetDropper(d Dropper)
}

// Dropper takes the packets a queue discards. The reason names the rule
// that discarded p ("tail", "red-early", "fq-evict", ...); the Dropper
// owns p once Drop is called.
type Dropper interface {
	Drop(p *packet.Packet, now sim.Time, reason string)
}

// Drops is embedded by a discipline that discards packets: it holds the
// installed Dropper and supplies SetDropper.
type Drops struct {
	// Dropper is the installed hook. Nil leaves discarded packets to the
	// garbage collector.
	Dropper Dropper
}

// SetDropper installs to.
func (d *Drops) SetDropper(to Dropper) { d.Dropper = to }

// Discard counts p as dropped in s and hands it to the Dropper.
func (d *Drops) Discard(s *Stats, p *packet.Packet, now sim.Time, reason string) {
	s.Dropped++
	s.DroppedBytes += uint64(p.Size)
	d.Forward(p, now, reason)
}

// Forward hands p to the Dropper, if one is installed, counting nothing.
func (d *Drops) Forward(p *packet.Packet, now sim.Time, reason string) {
	if d.Dropper != nil {
		d.Dropper.Drop(p, now, reason)
	}
}

// HighWaterer is implemented by disciplines that track their highest
// backlog in bytes; the observability plane harvests it at snapshot
// barriers.
type HighWaterer interface {
	HighWater() int
}

// FIFO is an unbounded first-in-first-out queue: the zero value is ready
// to use. It serves as the default discipline for uncongestible links
// (host uplinks, well-provisioned edges).
type FIFO struct {
	q     Ring
	bytes int
	hwm   int
	stats Stats
}

// StartOn hands the empty queue's ring its first slots (Ring.StartOn).
func (f *FIFO) StartOn(buf []*packet.Packet) { f.q.StartOn(buf) }

// Enqueue always succeeds.
func (f *FIFO) Enqueue(p *packet.Packet, now sim.Time) bool {
	f.q.Push(p)
	f.bytes += int(p.Size)
	if f.bytes > f.hwm {
		f.hwm = f.bytes
	}
	f.stats.Enqueued++
	return true
}

// Dequeue pops the oldest packet.
func (f *FIFO) Dequeue(now sim.Time) (*packet.Packet, sim.Time) {
	p := f.q.Pop()
	if p == nil {
		return nil, 0
	}
	f.bytes -= int(p.Size)
	f.stats.Dequeued++
	f.stats.DequeuedBytes += uint64(p.Size)
	return p, 0
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return f.q.Len() }

// Bytes returns the number of queued bytes.
func (f *FIFO) Bytes() int { return f.bytes }

// Stats returns cumulative counters.
func (f *FIFO) Stats() Stats { return f.stats }

// HighWater returns the highest backlog in bytes the queue reached.
func (f *FIFO) HighWater() int { return f.hwm }

// SetDropper does nothing: a FIFO never discards.
func (f *FIFO) SetDropper(Dropper) {}
