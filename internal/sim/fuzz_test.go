package sim

import (
	"slices"
	"testing"
)

// Opcodes of the fuzz program; bits 4 and up of the opcode byte pick the
// origin (and the owned slot).
const (
	opAfter  = 0
	opKeyed  = 1 // InjectEvent into an owned slot
	opOwned  = 2
	opCancel = 3
	opInject = 4
	opStep   = 5
	opUntil  = 6
	opBefore = 7
)

// fuzzDelay decodes one byte into a delay: the low three bits pick the
// class the calendar tells apart, the high five a jitter within it.
func fuzzDelay(b byte) Time {
	j := Time(b >> 3)
	switch b & 7 {
	case 0:
		return 0
	case 1: // a few ns: the same bucket, nearly always
		return j
	case 2: // within a bucket's width
		return j * 130
	case 3: // 1 … 32 buckets
		return (j + 1) << bucketShift
	case 4: // either side of one rotation
		return 1<<24 - 16 + j
	case 5: // 1 … 32 rotations: the upper ring
		return (j + 1) << 24
	case 6: // either side of the upper ring's horizon
		return 1<<32 - 16<<24 + j<<24
	default: // beyond it: the heap
		return 1<<32 + j<<28
	}
}

// fuzzRun interprets data as (opcode, argument) byte pairs against one
// engine and returns the IDs of the events in the order they fired,
// followed by Pending and Now after every operation. Every third event
// schedules a successor from inside its callback.
func fuzzRun(e *Engine, data []byte) []int64 {
	var log []int64
	origins := []Origin{e.NewOrigin(3), e.NewOrigin(1 << 40), e.NewOrigin(1 << 62)}
	var handles []*Event
	owned := make([]Event, 4)
	id := int64(0)
	var fired func(id int64, arg byte) func()
	fired = func(id int64, arg byte) func() {
		return func() {
			log = append(log, id)
			if id%3 == 0 {
				origins[id%2].After(fuzzDelay(arg*7+1), fired(id+1_000_000, arg+1))
			}
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		o := &origins[int(op>>4)%len(origins)]
		id++
		switch op & 7 {
		case opAfter:
			handles = append(handles, o.After(fuzzDelay(arg), fired(id, arg)))
		case opKeyed:
			if ev := &owned[int(op>>4)%len(owned)]; !ev.Pending() {
				k := EventKey{At: e.Now() + fuzzDelay(arg), Origin: o.id, Seq: 1<<40 + uint64(id)}
				e.InjectEvent(ev, k, Func(fired(id, arg)), nil)
			}
		case opOwned:
			if ev := &owned[int(op>>4)%len(owned)]; !ev.Pending() {
				o.ScheduleEvent(ev, e.Now()+fuzzDelay(arg), Func(fired(id, arg)), nil)
			}
		case opCancel:
			if len(handles) > 0 {
				handles[int(arg)%len(handles)].Cancel()
			}
		case opInject:
			k := EventKey{At: e.Now() + fuzzDelay(arg), Origin: o.id, Seq: 1<<40 + uint64(id)}
			e.Inject(k, Func(fired(id, arg)), nil)
		case opStep:
			e.Step()
		case opUntil:
			e.RunUntil(e.Now() + fuzzDelay(arg))
		case opBefore:
			e.RunBefore(e.Now() + fuzzDelay(arg))
		}
		log = append(log, -int64(e.Pending()), -int64(e.Now()))
	}
	e.Run()
	return append(log, -int64(e.Pending()), -int64(e.Now()))
}

// FuzzEngineOrder requires the calendar engine to fire the same events in
// the same order, with the same Pending and Now along the way, as the
// heap reference, under any interleaving of schedule, ScheduleEvent,
// cancel, Inject, InjectEvent, Step, RunUntil and RunBefore with delays
// of every class. The seeds are the table tests' shapes.
func FuzzEngineOrder(f *testing.F) {
	d := func(class, jitter byte) byte { return jitter<<3 | class }
	const o1, o2 = 1 << 4, 2 << 4
	// Three origins at one instant, then zero-delay inserts mid-batch.
	f.Add([]byte{opAfter, d(1, 5), opAfter | o1, d(1, 5), opAfter | o2, d(1, 5), opStep, 0,
		opAfter, d(0, 0), opAfter | o2, d(0, 0), opStep, 0, opStep, 0})
	// A due entry cancelled after an insertion shifted it.
	f.Add([]byte{opAfter, d(2, 1), opAfter, d(2, 2), opAfter, d(2, 3), opStep, 0,
		opAfter | o1, d(1, 10), opCancel, 2, opStep, 0, opStep, 0})
	// The only event of an upper-ring slot, cancelled; both sides of the
	// horizon.
	f.Add([]byte{opAfter, d(5, 1), opCancel, 0, opAfter, d(5, 2), opAfter, d(6, 15), opAfter, d(6, 16),
		opAfter, d(7, 0), opUntil, d(5, 1)})
	// A run that stops short of an extracted bucket, then schedules
	// behind the cursor and, through Inject, into that bucket.
	f.Add([]byte{opAfter, d(3, 3), opAfter | o1, d(3, 4), opUntil, d(2, 1), opAfter, d(1, 3),
		opInject | o1, d(3, 3), opBefore, d(3, 3), opAfter | o2, d(1, 1), opUntil, d(3, 8)})
	// Owned timers re-armed across a rotation boundary.
	f.Add([]byte{opOwned, d(4, 0), opOwned | o1, d(4, 31), opUntil, d(4, 8), opOwned, d(7, 3),
		opOwned | o1, d(5, 0), opBefore, d(5, 1), opStep, 0})
	// A mailbox's event: an owned slot armed under an explicit key, and
	// again once it has fired — for the same instant, the same bucket, a
	// later rotation — with pooled injections of its origin in between.
	f.Add([]byte{opKeyed | o1, d(3, 2), opUntil, d(3, 2), opKeyed | o1, d(0, 0), opInject | o1, d(0, 0), opStep, 0,
		opKeyed | o1, d(1, 9), opInject | o1, d(1, 4), opStep, 0, opKeyed | o1, d(5, 0), opBefore, d(5, 0), opKeyed | o2, d(4, 3)})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := fuzzRun(New(1), data), fuzzRun(NewHeapReference(1), data)
		if !slices.Equal(got, want) {
			t.Fatalf("calendar and heap reference diverge:\n got %v\nwant %v", got, want)
		}
	})
}
