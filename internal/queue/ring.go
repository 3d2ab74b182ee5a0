package queue

import "netfence/internal/packet"

// Ring is a growable circular buffer of packets, the building block of
// every queue discipline in this repository. It avoids the per-element
// allocation of container/list on the simulator's hottest path. The zero
// value is an empty ring ready for use.
type Ring struct {
	buf  []*packet.Packet
	head int
	n    int
}

// StartOn makes buf the storage of an empty ring, so an owner can
// allocate the first slots together with itself; growth moves off it.
func (r *Ring) StartOn(buf []*packet.Packet) { r.buf = buf }

// Len returns the number of buffered packets.
func (r *Ring) Len() int { return r.n }

// Push appends p at the tail.
func (r *Ring) Push(p *packet.Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

// Pop removes and returns the head packet, or nil when empty.
func (r *Ring) Pop() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

// Peek returns the head packet without removing it, or nil when empty.
func (r *Ring) Peek() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// PopTail removes and returns the newest packet (used by
// longest-queue-drop policies), or nil when empty.
func (r *Ring) PopTail() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	i := (r.head + r.n - 1) % len(r.buf)
	p := r.buf[i]
	r.buf[i] = nil
	r.n--
	return p
}

func (r *Ring) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]*packet.Packet, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
