package sim

import "math/bits"

// Hierarchical timer wheel geometry: six levels of 256 slots at 1 ns
// granularity. Level l's slots each span 256^l ns, so the wheel covers
// 2^48 ns ≈ 3.3 simulated days ahead of the cursor; anything further
// lives in the engine's overflow heap and migrates inward. Narrow levels
// cost one extra cascade for millisecond-scale timers but keep the whole
// slot array (~24 KiB) resident in L1, which wins on the simulator's
// event densities (wider 4096-slot levels measured ~25% slower).
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 6
	wheelWords  = wheelSlots / 64
)

// slotList is a doubly-linked intrusive event list (append at tail keeps
// same-slot events in scheduling order; prev pointers make Cancel an
// O(1) unlink).
type slotList struct {
	head, tail *Event
}

// wheel is the hierarchical timer wheel. time is the cursor: every queued
// event's timestamp is >= time (events scheduled behind the cursor after
// a speculative advance go to the overflow heap instead). A level-0 slot
// within the current window holds events of exactly one timestamp, which
// is what makes batch extraction exact.
type wheel struct {
	time  Time
	count int
	slots [wheelLevels][wheelSlots]slotList
	bits  [wheelLevels][wheelWords]uint64
}

func (w *wheel) init() {
	w.time = 0
	w.count = 0
}

// insert places ev by the highest bit-block in which its timestamp
// differs from the cursor. It reports false when the event cannot live in
// the wheel: behind the cursor, or past the horizon. now is the engine
// clock: an empty wheel teleports its cursor there (never to the event's
// own time — a far-future event must not strand every later near-term
// event behind the cursor).
func (w *wheel) insert(ev *Event, now Time) bool {
	if w.count == 0 {
		// An empty wheel's cursor position carries no information; pin it
		// to the clock so every schedulable time >= now is in range.
		w.time = now
	}
	if ev.at < w.time {
		return false
	}
	return w.place(ev)
}

// place is insert without the cursor teleport, used by cascades (which
// must not move the cursor mid-redistribution).
func (w *wheel) place(ev *Event) bool {
	d := uint64(ev.at) ^ uint64(w.time)
	lvl := 0
	if d != 0 {
		lvl = (63 - bits.LeadingZeros64(d)) / wheelBits
	}
	if lvl >= wheelLevels {
		return false
	}
	slot := int(uint64(ev.at)>>(wheelBits*lvl)) & wheelMask
	ls := &w.slots[lvl][slot]
	ev.prev = ls.tail
	ev.next = nil
	if ls.tail != nil {
		ls.tail.next = ev
	} else {
		ls.head = ev
	}
	ls.tail = ev
	w.bits[lvl][slot>>6] |= 1 << (slot & 63)
	ev.loc = int32(lvl)<<wheelBits | int32(slot)
	w.count++
	return true
}

// remove unlinks a queued event from its slot in O(1).
func (w *wheel) remove(ev *Event) {
	lvl := int(ev.loc) >> wheelBits
	slot := int(ev.loc) & wheelMask
	ls := &w.slots[lvl][slot]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		ls.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		ls.tail = ev.prev
	}
	ev.next, ev.prev = nil, nil
	if ls.head == nil {
		w.bits[lvl][slot>>6] &^= 1 << (slot & 63)
	}
	w.count--
}

// nextSet returns the first occupied slot index >= from at the given
// level, or -1.
func (w *wheel) nextSet(lvl, from int) int {
	for from < wheelSlots {
		word := from >> 6
		v := w.bits[lvl][word] & (^uint64(0) << (from & 63))
		if v != 0 {
			return word<<6 + bits.TrailingZeros64(v)
		}
		from = (word + 1) << 6
	}
	return -1
}

// peek returns the exact timestamp of the earliest queued event,
// advancing the cursor and cascading upper-level slots downward as
// needed. It does not extract anything.
func (w *wheel) peek() (Time, bool) {
	if w.count == 0 {
		return 0, false
	}
	for {
		// The current level-0 window: each occupied slot at or after the
		// cursor maps to exactly one timestamp. Advancing the cursor over
		// the empty prefix keeps repeated peeks from rescanning it.
		c0 := int(uint64(w.time)) & wheelMask
		if s := w.nextSet(0, c0); s >= 0 {
			t := (w.time &^ Time(wheelMask)) | Time(s)
			w.time = t
			return t, true
		}
		// Otherwise the next event hides in the first occupied slot of
		// the shallowest upper level; advance the cursor to that slot's
		// window and redistribute its events downward.
		advanced := false
		for lvl := 1; lvl < wheelLevels; lvl++ {
			cl := int(uint64(w.time)>>(wheelBits*lvl)) & wheelMask
			s := w.nextSet(lvl, cl+1)
			if s < 0 {
				continue
			}
			shift := uint(wheelBits * lvl)
			span := (uint64(1) << (shift + wheelBits)) - 1
			w.time = Time(uint64(w.time)&^span | uint64(s)<<shift)
			w.cascade(lvl, s)
			advanced = true
			break
		}
		if !advanced {
			// Unreachable while count > 0: every queued event lies in
			// the current top-level window.
			panic("sim: timer wheel lost an event")
		}
	}
}

// cascade redistributes one upper-level slot into lower levels after the
// cursor entered its window.
func (w *wheel) cascade(lvl, slot int) {
	ls := &w.slots[lvl][slot]
	ev := ls.head
	ls.head, ls.tail = nil, nil
	w.bits[lvl][slot>>6] &^= 1 << (slot & 63)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.count--
		if !w.place(ev) {
			panic("sim: cascade out of range")
		}
		ev = next
	}
}

// drainSlot moves every event of the level-0 slot holding timestamp t
// into out. peek must have returned t immediately beforehand.
func (w *wheel) drainSlot(t Time, out *[]*Event) {
	slot := int(uint64(t)) & wheelMask
	ls := &w.slots[0][slot]
	ev := ls.head
	ls.head, ls.tail = nil, nil
	w.bits[0][slot>>6] &^= 1 << (slot & 63)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.count--
		*out = append(*out, ev)
		ev = next
	}
}
