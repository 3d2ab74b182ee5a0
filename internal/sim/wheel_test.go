package sim

import (
	"math/rand/v2"
	"testing"
)

// schedOp is one step of the randomized scheduler workload: schedule an
// event at now+delay (optionally cancelling an earlier live event first).
type schedOp struct {
	delay     Time
	cancelIdx int // index into previously scheduled events, -1 = none
}

// driveEngine replays the op sequence on an engine and returns the order
// in which events executed (by op index). Ops are consumed from within
// event callbacks too, exercising nested scheduling at the current
// timestamp and across wheel windows.
func driveEngine(e *Engine, ops []schedOp) []int {
	var order []int
	var evs []*Event
	next := 0
	var emit func(n int)
	emit = func(n int) {
		for i := 0; i < n && next < len(ops); i++ {
			op := ops[next]
			id := next
			next++
			if op.cancelIdx >= 0 && op.cancelIdx < len(evs) {
				evs[op.cancelIdx].Cancel()
			}
			evs = append(evs, e.At(e.Now()+op.delay, func() {
				order = append(order, id)
				// Fan out a couple of follow-up schedules from inside
				// the callback.
				emit(2)
			}))
		}
	}
	emit(64)
	for next < len(ops) || e.Pending() > 0 {
		if !e.Step() {
			emit(64)
			if e.Pending() == 0 && next >= len(ops) {
				break
			}
		}
	}
	return order
}

// TestWheelMatchesHeapReference drives the timer-wheel engine and the
// pure-heap reference through 10k random schedule/cancel operations and
// requires identical execution orderings — the bit-for-bit determinism
// guarantee the pooled hot path depends on.
func TestWheelMatchesHeapReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 1234} {
		rng := rand.New(rand.NewPCG(seed, 99))
		ops := make([]schedOp, 10_000)
		for i := range ops {
			var d Time
			switch rng.IntN(10) {
			case 0:
				d = 0 // same-instant follow-up
			case 1, 2, 3:
				d = Time(rng.Int64N(int64(Microsecond))) // the same bucket
			case 4, 5, 6:
				d = Time(rng.Int64N(int64(Millisecond))) // within a rotation
			case 7, 8:
				d = Time(rng.Int64N(int64(Minute))) // the upper ring and, past 4.29 s, the heap
			default:
				d = Time(rng.Int64N(4 * int64(Hour))) // far future: the heap
			}
			cancel := -1
			if rng.IntN(4) == 0 {
				cancel = rng.IntN(i + 1)
			}
			ops[i] = schedOp{delay: d, cancelIdx: cancel}
		}
		got := driveEngine(New(seed), ops)
		want := driveEngine(NewHeapReference(seed), ops)
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel executed %d events, heap %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: orderings diverge at step %d: wheel ran op %d, heap ran op %d",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestWheelRunUntilMatchesHeap checks the RunUntil boundary behavior
// (including events scheduled behind a speculatively advanced cursor)
// stays identical between the two schedulers.
func TestWheelRunUntilMatchesHeap(t *testing.T) {
	run := func(e *Engine) []Time {
		var fired []Time
		// A sparse far event forces the wheel cursor to advance
		// speculatively when RunUntil peeks past the gap.
		e.At(10*Second, func() { fired = append(fired, e.Now()) })
		e.RunUntil(3 * Second)
		// Scheduled behind the advanced cursor, ahead of the clock.
		e.At(4*Second, func() { fired = append(fired, e.Now()) })
		e.At(3*Second+Nanosecond, func() { fired = append(fired, e.Now()) })
		e.RunUntil(4 * Second)
		e.RunUntil(20 * Second)
		return fired
	}
	got, want := run(New(7)), run(NewHeapReference(7))
	if len(got) != len(want) {
		t.Fatalf("wheel fired %d, heap fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing %d: wheel at %v, heap at %v", i, got[i], want[i])
		}
	}
	if got[0] != 3*Second+Nanosecond || got[1] != 4*Second || got[2] != 10*Second {
		t.Fatalf("unexpected firing times %v", got)
	}
}

// TestPendingExcludesCancelled pins the satellite fix: cancelled events
// detach immediately and never inflate Pending, so drain loops that wait
// for Pending()==0 cannot spin on ghosts.
func TestPendingExcludesCancelled(t *testing.T) {
	e := New(1)
	evs := make([]*Event, 10)
	for i := range evs {
		evs[i] = e.At(Time(i+1)*Second, func() {})
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	for i := 0; i < 5; i++ {
		evs[i].Cancel()
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending after 5 cancels = %d, want 5", e.Pending())
	}
	evs[0].Cancel() // double cancel must not double-decrement
	if e.Pending() != 5 {
		t.Fatalf("Pending after re-cancel = %d, want 5", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
}

// TestOwnedEventReuse exercises the ScheduleEvent re-arm cycle and its
// still-queued panic guard.
func TestOwnedEventReuse(t *testing.T) {
	e := New(1)
	var ev Event
	count := 0
	var h handlerFunc = func(now Time, arg any) {
		count++
		if count < 3 {
			e.ScheduleEvent(&ev, now+Millisecond, arg.(handlerFunc), arg)
		}
	}
	e.ScheduleEvent(&ev, Millisecond, h, h)
	e.Run()
	if count != 3 {
		t.Fatalf("owned event fired %d times, want 3", count)
	}
	// Cancel-then-rearm must work.
	e.ScheduleEvent(&ev, e.Now()+Second, h, h)
	ev.Cancel()
	if e.Pending() != 0 {
		t.Fatalf("Pending after cancel = %d", e.Pending())
	}
	e.ScheduleEvent(&ev, e.Now()+Millisecond, handlerFunc(func(Time, any) { count = 100 }), nil)
	e.Run()
	if count != 100 {
		t.Fatal("re-armed owned event did not fire")
	}
	// Re-arming a queued event panics.
	e.ScheduleEvent(&ev, e.Now()+Second, h, h)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic re-arming a queued event")
		}
	}()
	e.ScheduleEvent(&ev, e.Now()+Second, h, h)
}

// TestPooledEventsRecycle verifies Schedule reuses its free-list slots.
func TestPooledEventsRecycle(t *testing.T) {
	e := New(1)
	var h handlerFunc = func(Time, any) {}
	for i := 0; i < 100; i++ {
		e.Schedule(e.Now()+Time(i)*Microsecond, h, nil)
	}
	e.Run()
	if e.free == nil {
		t.Fatal("no events on the free list after a pooled run")
	}
	n := 0
	for ev := e.free; ev != nil; ev = ev.next {
		n++
	}
	// The free list refills in slabs, so its size is the schedule count
	// rounded up to a whole number of slabs.
	if want := (100 + eventSlabSize - 1) / eventSlabSize * eventSlabSize; n > want {
		t.Fatalf("free list grew beyond %d slab slots: %d", want, n)
	}
	// Second wave must not grow the free list beyond its high-water mark.
	for i := 0; i < 100; i++ {
		e.Schedule(e.Now()+Time(i)*Microsecond, h, nil)
	}
	e.Run()
	m := 0
	for ev := e.free; ev != nil; ev = ev.next {
		m++
	}
	if m != n {
		t.Fatalf("free list changed across waves: %d -> %d", n, m)
	}
}

// handlerFunc adapts a func to Handler for tests.
type handlerFunc func(now Time, arg any)

func (f handlerFunc) OnEvent(now Time, arg any) { f(now, arg) }

// TestBeyondHorizonEvent pins the far-future path: an event beyond the
// wheel's horizon (2^32 ns; 2^48 ns when this was written) stays in the
// heap and still executes (an earlier version hard-hung trying to
// migrate it into the wheel).
func TestBeyondHorizonEvent(t *testing.T) {
	e := New(1)
	var fired []Time
	e.At(Time(1)<<49, func() { fired = append(fired, e.Now()) })
	e.At(Second, func() { fired = append(fired, e.Now()) })
	e.Run()
	if len(fired) != 2 || fired[0] != Second || fired[1] != Time(1)<<49 {
		t.Fatalf("firing order/time wrong: %v", fired)
	}
	// Horizon-crossing from a nonzero clock, mixed with near events.
	e2 := New(2)
	e2.RunUntil(5 * Second)
	e2.At(5*Second+Time(1)<<48, func() { fired = append(fired, e2.Now()) })
	e2.At(6*Second, func() { fired = append(fired, e2.Now()) })
	e2.Run()
	if len(fired) != 4 || fired[2] != 6*Second || fired[3] != 5*Second+Time(1)<<48 {
		t.Fatalf("horizon-crossing order wrong: %v", fired)
	}
}

// TestPreemptionPastCancelledDueHead pins preemption past a hole:
// cancelling the head of an extracted due batch must not let a newly
// scheduled earlier event run after the batch (which would also march
// the clock backwards).
func TestPreemptionPastCancelledDueHead(t *testing.T) {
	for _, mk := range []func() *Engine{func() *Engine { return New(1) }, func() *Engine { return NewHeapReference(1) }} {
		e := mk()
		var order []Time
		evA := e.At(100*Millisecond, func() { order = append(order, e.Now()) })
		e.At(100*Millisecond, func() { order = append(order, e.Now()) })
		// Extract the t=100ms batch into the due buffer without running it.
		e.RunUntil(50 * Millisecond)
		// Cancel the batch head, then schedule an earlier event.
		evA.Cancel()
		e.At(60*Millisecond, func() { order = append(order, e.Now()) })
		e.Run()
		if len(order) != 2 || order[0] != 60*Millisecond || order[1] != 100*Millisecond {
			t.Fatalf("preemption order wrong: %v", order)
		}
	}
}
