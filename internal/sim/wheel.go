package sim

import (
	"math/bits"
	"slices"
)

// Calendar geometry: a ring of 4,096 buckets of 4,096 ns (one rotation is
// 2^24 ns ≈ 16.8 ms, enough for every transmit time and a 10 ms
// propagation delay) and an upper ring of 256 slots of one rotation each
// (2^32 ns ≈ 4.29 s). The constants are the design, not knobs: a bucket
// wide enough that an event is linked once, narrow enough that sorting
// it stays cheap at a million pending events.
const (
	bucketShift = 12 // log2 of a bucket's width in ns
	ringBits    = 12
	ringSlots   = 1 << ringBits
	ringMask    = ringSlots - 1
	upperSlots  = 256
	upperMask   = upperSlots - 1
	wheelSlots  = ringSlots + upperSlots
)

// tickOf returns the absolute number of the bucket holding instant t.
func tickOf(t Time) uint64 { return uint64(t) >> bucketShift }

// wheel is the calendar. cur is the cursor, the absolute number of the
// bucket extraction has reached; the ring holds the buckets
// [cur, cur+4096), each exactly one absolute bucket wherever the cursor
// sits, because an event is placed by its distance from the cursor and
// not by the bits it shares with it. Upper slot r&255 holds rotation r
// for the 255 rotations after the cursor's and is redistributed into the
// ring once, when the cursor enters r. What fits neither (behind the
// cursor, or further ahead) is the engine's heap's, for good.
//
// slots[:ringSlots] is the ring and slots[ringSlots:] the upper ring, one
// bit of bits per slot. A slot is the head of an intrusive doubly-linked
// list (prev makes Cancel an O(1) unlink) that grows at the head, so it
// reads newest first.
type wheel struct {
	cur   uint64
	count int
	slots [wheelSlots]*Event
	bits  [wheelSlots / 64]uint64

	placed, cascaded, drains uint64 // see SchedStats
}

// place links ev, whose bucket is at or after the cursor, into the ring or
// the upper ring. It reports false when ev lies beyond the upper ring.
func (w *wheel) place(ev *Event) bool {
	tick := tickOf(ev.at)
	switch {
	case tick-w.cur < ringSlots:
		w.link(ev, int(tick&ringMask))
	case tick>>ringBits-w.cur>>ringBits < upperSlots:
		w.link(ev, ringSlots+int(tick>>ringBits&upperMask))
	default:
		return false
	}
	w.count++
	return true
}

func (w *wheel) link(ev *Event, i int) {
	head := w.slots[i]
	ev.next, ev.prev = head, nil
	if head != nil {
		head.prev = ev
	} else {
		w.bits[i>>6] |= 1 << (i & 63)
	}
	w.slots[i] = ev
	ev.loc = int32(i)
	w.placed++
}

// remove unlinks a queued event from its slot in O(1).
func (w *wheel) remove(ev *Event) {
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else if i := int(ev.loc); ev.next != nil {
		w.slots[i] = ev.next
	} else {
		w.clear(i)
	}
	ev.next, ev.prev = nil, nil
	w.count--
}

// clear empties slot i and returns the list it held.
func (w *wheel) clear(i int) *Event {
	head := w.slots[i]
	w.slots[i] = nil
	w.bits[i>>6] &^= 1 << (i & 63)
	return head
}

// nextSet returns the first occupied slot in [from, to), or -1; to is a
// multiple of 64.
func (w *wheel) nextSet(from, to int) int {
	for from < to {
		word := from >> 6
		if v := w.bits[word] >> (from & 63); v != 0 {
			return from + bits.TrailingZeros64(v)
		}
		from = (word + 1) << 6
	}
	return -1
}

// advance moves the cursor to the earliest occupied bucket and returns its
// ring slot. The wheel must not be empty.
func (w *wheel) advance() int {
	for {
		if s := w.nextSet(int(w.cur&ringMask), ringSlots); s >= 0 {
			w.cur = w.cur&^ringMask | uint64(s)
			return s
		}
		// Nothing more in this rotation. Enter the next one — or, when the
		// whole ring is empty, the first one the upper ring holds, which
		// lies circularly after the cursor's own slot.
		rot := w.cur>>ringBits + 1
		if w.nextSet(0, ringSlots) < 0 {
			u := w.nextSet(ringSlots+int(rot&upperMask), wheelSlots)
			if u < 0 {
				u = w.nextSet(ringSlots, wheelSlots)
			}
			rot += (uint64(u) - rot) & upperMask
		}
		w.cur = rot << ringBits
		for ev := w.clear(ringSlots + int(rot&upperMask)); ev != nil; {
			next := ev.next
			w.link(ev, int(tickOf(ev.at)&ringMask))
			w.cascaded++
			ev = next
		}
	}
}

// drain advances to the earliest occupied bucket and moves its events to
// out in placement order, returning the instant the bucket ends at.
func (w *wheel) drain(out []*Event) ([]*Event, Time) {
	for ev := w.clear(w.advance()); ev != nil; ev = ev.next {
		out = append(out, ev)
	}
	w.count -= len(out)
	w.drains++
	slices.Reverse(out)
	return out, Time(w.cur+1) << bucketShift
}
