package sim

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"unsafe"

	"netfence/internal/slab"
)

// Handler is the allocation-free event callback: hot paths implement
// OnEvent on a long-lived object (a link, a transport, a limiter) instead
// of capturing state in a fresh closure per event. The arg slot carries
// per-event context (typically a *packet.Packet); passing a pointer
// through an interface value does not allocate.
type Handler interface {
	OnEvent(now Time, arg any)
}

// Func adapts a plain closure to Handler. A func value is pointer-shaped,
// so the conversion to the interface does not allocate.
type Func func()

// OnEvent implements Handler.
func (f Func) OnEvent(Time, any) { f() }

// Event locations while queued.
const (
	locNone int32 = -1 // not queued
	locHeap int32 = -2 // in the heap
	locDue  int32 = -3 // extracted into the engine's due batch
	// loc >= 0 is the event's slot in the wheel.
)

// Event is a scheduled callback. Events come in three flavors:
//
//   - closure events, created by At / After: heap-allocated per call, safe
//     to hold and Cancel at any time;
//   - owned events, embedded by value in a long-lived struct and armed
//     with ScheduleEvent or InjectEvent: reusable with zero allocation,
//     but must not be re-armed while still queued;
//   - pooled events, created by Schedule: drawn from the engine's free
//     list and recycled after firing; no handle is returned, so they
//     cannot be cancelled externally.
//
// The zero value is an idle owned event ready for ScheduleEvent.
//
// Ordering rule: an engine always executes the pending event with the
// smallest key (at, origin, seq) — the instant, the ID of the Origin
// that scheduled it, and that origin's own scheduling count. The key is
// a pure function of the model: it does not depend on what else was
// scheduled, by whom, or on which engine. The rule has no special cases:
// an event scheduled with zero delay, or into the stretch of time whose
// events are already extracted, runs next if its key is below everything
// still pending, and never before something that already ran. Every shard
// of a partitioned run applies the same rule to the same keys, so a
// shard's execution order is the single engine's order restricted to
// that shard, by construction.
type Event struct {
	at     Time
	origin uint64
	seq    uint64
	h      Handler
	arg    any
	eng    *Engine

	// next/prev link the event into a wheel slot (doubly linked so Cancel
	// detaches in O(1)); next doubles as the free-list link while a
	// pooled event is idle.
	next, prev *Event
	loc        int32
	index      int32 // position in the heap or the due batch

	queued    bool
	cancelled bool
	pooled    bool
}

// Cancel prevents the event from firing, detaching it from the scheduler
// immediately (a cancelled event no longer counts as pending). Cancelling
// an already-executed, already-cancelled or nil event is a no-op.
func (ev *Event) Cancel() {
	if ev == nil {
		return
	}
	if ev.queued {
		ev.eng.remove(ev)
	}
	ev.cancelled = true
	ev.h, ev.arg = nil, nil
}

// Cancelled reports whether the event was cancelled since it was last
// scheduled.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Pending reports whether the event is armed and has not fired yet.
func (ev *Event) Pending() bool { return ev.queued }

// Time returns the instant the event is (or was last) scheduled for.
func (ev *Event) Time() Time { return ev.at }

// Origin is a model entity that schedules events: a link, a host agent,
// a rate limiter, the scenario control point. Its ID is the middle term
// of every key it mints and must be derived from identifiers of the
// model itself (node ID, link index, per-node ordinal) — never from
// scheduling history, a shard index or a shard-local counter. seq counts the origin's own schedulings, so two events of one
// origin at one instant run in the order they were scheduled.
//
// Embed an Origin by value in the struct that owns the timers (obtain it
// from Engine.NewOrigin) and schedule through its methods; nothing
// allocates.
type Origin struct {
	eng *Engine
	id  uint64
	seq uint64
}

// NewOrigin returns an origin with the given model-derived ID, scheduling
// on e.
func (e *Engine) NewOrigin(id uint64) Origin { return Origin{eng: e, id: id} }

// ID returns the origin's model-derived ID, which also names the
// entity's random stream (Engine.KeyStream).
func (o *Origin) ID() uint64 { return o.id }

// Now returns the current simulated time.
func (o *Origin) Now() Time { return o.eng.now }

// At schedules fn to run at the absolute time t. Scheduling in the past is
// clamped to the current time.
func (o *Origin) At(t Time, fn func()) *Event {
	ev := &Event{h: Func(fn), loc: locNone, index: -1}
	o.arm(ev, t)
	return ev
}

// After schedules fn to run d nanoseconds from now.
func (o *Origin) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return o.At(o.eng.now+d, fn)
}

// Schedule arms a one-shot pooled event: h.OnEvent(now, arg) runs at time
// t (clamped to now). The event slot comes from the engine's free list and
// returns to it after firing, so steady-state scheduling allocates
// nothing. No handle is returned; use At or ScheduleEvent for cancellable
// events.
func (o *Origin) Schedule(t Time, h Handler, arg any) {
	ev := o.eng.grabEvent()
	ev.h, ev.arg = h, arg
	o.arm(ev, t)
}

// ScheduleEvent arms a caller-owned event slot: h.OnEvent(now, arg) runs
// at time t (clamped to now). The caller keeps ev alive (typically
// embedded by value in the object that owns the timer) and may re-arm it
// after it fires or is cancelled; re-arming a still-queued event panics.
func (o *Origin) ScheduleEvent(ev *Event, t Time, h Handler, arg any) {
	if ev.queued {
		panic("sim: ScheduleEvent on an event that is still queued")
	}
	ev.h, ev.arg = h, arg
	o.arm(ev, t)
}

// arm stamps the origin's next key onto ev and queues it.
func (o *Origin) arm(ev *Event, t Time) {
	if t < o.eng.now {
		t = o.eng.now
	}
	o.seq++
	ev.at, ev.origin, ev.seq = t, o.id, o.seq
	o.eng.enqueue(ev)
}

// EventKey is the scheduling key of one event — the currency of
// cross-shard handoffs. The source side mints it with HandoffKey at the
// instant it would have scheduled the event locally; the destination
// engine's Inject or InjectEvent places the event into its own order
// exactly where a single global engine would have run it.
type EventKey struct {
	At          Time
	Origin, Seq uint64
}

// HandoffKey consumes one sequence number of the origin and returns the
// key a locally-scheduled event for time at would have carried.
func (o *Origin) HandoffKey(at Time) EventKey {
	o.seq++
	return EventKey{At: at, Origin: o.id, Seq: o.seq}
}

// Meter aggregates executed-event counts across the engines of ONE
// logical run (a scenario's shards, a sweep's cells, a bench
// suite). Engines attached to a meter flush their local counters into
// it at Run/RunUntil boundaries, so the per-event hot path stays free
// of atomics, and concurrent runs in one process (e.g. two -serve
// jobs) never contaminate each other's event accounting.
type Meter struct{ n atomic.Uint64 }

// Add folds n executed events into the meter. Safe for concurrent use.
func (m *Meter) Add(n uint64) { m.n.Add(n) }

// Total returns the events aggregated so far.
func (m *Meter) Total() uint64 { return m.n.Load() }

// Engine is a discrete-event scheduler. It is not safe for concurrent use:
// simulations are single-threaded and deterministic by design.
//
// Events up to 4.29 s ahead live in a calendar (see wheel): O(1) schedule
// and cancel, no allocation, and an event is linked once, into the 4 µs
// bucket it will be extracted from. Extraction drains the earliest bucket
// into the due batch, sorts it by key, and always runs the smaller of the
// batch's head and the top of a binary heap. The heap holds what the
// calendar cannot, and keeps it — nothing migrates from heap to wheel:
// events beyond the calendar's horizon; events for time already
// extracted (into the executing bucket but deep in its batch, or behind
// a cursor that a RunUntil peeked ahead with); and, in the reference
// engine the tests compare against, everything. Execution order is
// strictly ascending (time, origin, seq) — see Event — bit-for-bit
// identical to that reference.
//
// The engine embeds an Origin of its own, the control point: eng.At,
// After, Schedule, ScheduleEvent, Tick and HandoffKey schedule from it.
// Its ID is 0 unless SetShardTag says otherwise, below every model
// origin, so scenario-level control (probes, warmup marks, attack
// controllers) and anything driven from outside the model runs first at
// its instant.
type Engine struct {
	Origin

	now  Time
	live int // queued, non-cancelled events

	// seed is the simulation's seed, from which KeyStream derives every
	// consumer's random stream.
	seed uint64

	wheel wheel
	heap  eventHeap

	// due is the bucket under execution, sorted by key, due[duePos:] yet
	// to run; Cancel punches nil holes into it. dueEnd is the instant the
	// bucket ends at: an event before it never enters the wheel.
	due    []*Event
	duePos int
	dueEnd Time

	heapPushed, dueInserted uint64 // see SchedStats

	// free is the pooled-event free list, linked through Event.next.
	free *Event

	// forceHeap routes every event through the heap, bypassing the wheel:
	// the reference configuration equivalence tests compare against.
	forceHeap bool

	// executed counts events that have run, for diagnostics; flushed
	// tracks how much of it has been folded into the attached meter.
	executed uint64
	flushed  uint64
	meter    *Meter

	// events carves the pooled slots that have never been on the free
	// list; it sits last, away from the fields every event touches.
	events slab.Slab[Event]
}

// New returns an engine whose clock starts at zero and whose random
// streams (KeyStream) derive from the given seed.
func New(seed uint64) *Engine {
	e := &Engine{
		heap:   make(eventHeap, 0, 64),
		seed:   seed,
		events: slab.Sized[Event](eventSlabBytes),
	}
	e.Origin.eng = e
	return e
}

// NewHeapReference returns an engine that schedules exclusively through
// the binary heap — the straightforward reference implementation the
// calendar must match event for event. Tests use it to pin the wheel's
// ordering; simulations should use New.
func NewHeapReference(seed uint64) *Engine {
	e := New(seed)
	e.forceHeap = true
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of live events currently scheduled. Cancelled
// events are detached immediately and never counted, so drain loops and
// diagnostics can trust the value.
func (e *Engine) Pending() int { return e.live }

// SchedStats counts what the scheduler did with the events it was given:
// (Placed + HeapPushed + DueInserted) / Executed is how many times an
// event is linked before it fires.
type SchedStats struct {
	Placed      uint64 // links into a wheel slot, Cascaded included
	Cascaded    uint64 // moves from the upper ring into the bucket ring
	HeapPushed  uint64 // events given to the heap
	DueInserted uint64 // events inserted into the bucket under execution
	Drains      uint64 // buckets extracted
}

// SchedStats returns the engine's scheduler counts so far.
func (e *Engine) SchedStats() SchedStats {
	w := &e.wheel
	return SchedStats{Placed: w.placed, Cascaded: w.cascaded, HeapPushed: e.heapPushed,
		DueInserted: e.dueInserted, Drains: w.drains}
}

// eventSlabSize is how many pooled Event slots one slab chunk holds;
// eventSlabBytes is the budget that makes it so, the allocator's header
// included. Chunks amortize the allocator over bursts and keep pooled
// events cache-adjacent.
const (
	eventSlabSize  = 64
	eventSlabBytes = eventSlabSize*int(unsafe.Sizeof(Event{})) + slab.Header
)

// grabEvent pops a pooled event slot off the free list, carving a fresh
// one from the engine's slab when the list is empty. It stays small
// enough to inline into Schedule and Inject: the carving is out of line,
// a slot is marked pooled once, when carved, and the free-list link left
// in next is never read, because whatever queues the slot next either
// links it into a wheel slot, which rewrites next, or keeps it where
// next is not read (the heap, the due batch).
func (e *Engine) grabEvent() *Event {
	ev := e.free
	if ev == nil {
		ev = e.carveEvent()
	}
	e.free = ev.next
	return ev
}

// carveEvent makes a pooled event slot that has never been on the free
// list.
//
//go:noinline
func (e *Engine) carveEvent() *Event {
	ev := e.events.New()
	ev.loc = locNone
	ev.index = -1
	ev.pooled = true
	return ev
}

// recycle scrubs a pooled event slot and returns it to the free list, so
// the list retains nothing.
func (e *Engine) recycle(ev *Event) {
	ev.h, ev.arg = nil, nil
	ev.next = e.free
	e.free = ev
}

// dueShiftMax bounds how many due entries one insertion may move. It
// covers the transmit-complete a few hundred ns ahead, which belongs at
// the batch's tail; anything deeper costs O(log n) on the heap instead.
const dueShiftMax = 8

// enqueue queues an event whose key is already stamped.
func (e *Engine) enqueue(ev *Event) {
	ev.eng = e
	ev.queued = true
	ev.cancelled = false
	if e.live == len(e.heap) && !e.forceHeap {
		// Nothing is pending outside the heap, so the cursor carries no
		// information: pin it to the clock.
		e.wheel.cur = tickOf(e.now)
		e.dueEnd = Time(e.wheel.cur) << bucketShift
	}
	e.live++
	switch {
	case e.forceHeap: // the reference engine: everything to the heap
	case ev.at >= e.dueEnd:
		if e.wheel.place(ev) {
			return
		}
	case tickOf(ev.at) == e.wheel.cur && e.insertDue(ev):
		return
	}
	ev.loc = locHeap
	e.heap.push(ev)
	e.heapPushed++
}

// insertDue inserts an event for the bucket under execution by key into
// what remains of the due batch, unless it belongs more than dueShiftMax
// entries from the tail.
func (e *Engine) insertDue(ev *Event) bool {
	n := len(e.due)
	i := n
	for i > e.duePos && (e.due[i-1] == nil || keyLess(ev, e.due[i-1])) {
		if i--; n-i > dueShiftMax {
			return false
		}
	}
	e.due = append(e.due, nil)
	copy(e.due[i+1:], e.due[i:n])
	for j := i + 1; j <= n; j++ {
		if e.due[j] != nil {
			e.due[j].index = int32(j)
		}
	}
	e.due[i] = ev
	ev.loc, ev.index = locDue, int32(i)
	e.dueInserted++
	return true
}

// remove detaches a queued event (Cancel's backend).
func (e *Engine) remove(ev *Event) {
	switch {
	case ev.loc >= 0:
		e.wheel.remove(ev)
	case ev.loc == locHeap:
		e.heap.removeAt(int(ev.index))
	case ev.loc == locDue:
		e.due[ev.index] = nil
	}
	ev.loc = locNone
	ev.queued = false
	e.live--
	if ev.pooled {
		e.recycle(ev)
	}
}

// next extracts the pending event with the smallest key, or returns nil
// when nothing is pending at or before limit.
func (e *Engine) next(limit Time) *Event {
	var ev *Event
	for {
		if e.duePos < len(e.due) {
			if ev = e.due[e.duePos]; ev != nil {
				break
			}
			e.duePos++ // a cancellation hole
		} else if e.wheel.count > 0 {
			e.due, e.dueEnd = e.wheel.drain(e.due[:0])
			e.duePos = 0
			sortByKey(e.due)
			for i, d := range e.due {
				d.next, d.prev = nil, nil
				d.loc, d.index = locDue, int32(i)
			}
		} else {
			break
		}
	}
	if len(e.heap) > 0 && (ev == nil || keyLess(e.heap[0], ev)) {
		if ev = e.heap[0]; ev.at <= limit {
			e.heap.pop()
			return ev
		}
		return nil
	}
	if ev == nil || ev.at > limit {
		return nil
	}
	e.duePos++
	return ev
}

// keyLess orders two events, whichever engine keyed them, by
// (at, origin, seq).
func keyLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// keyCompare is keyLess as a three-way comparison: the first term that
// differs decides, and the rest are not compared.
func keyCompare(a, b *Event) int {
	switch {
	case a.at != b.at:
		return cmp.Compare(a.at, b.at)
	case a.origin != b.origin:
		return cmp.Compare(a.origin, b.origin)
	}
	return cmp.Compare(a.seq, b.seq)
}

// sortShiftBudget is how many entries per event sortByKey's insertion
// sort may move before it gives up: enough to finish any bucket of up to
// 24 events, however ordered.
const sortShiftBudget = 12

// sortByKey orders a drained bucket, which arrives in placement order, by
// key. Insertion sort while that is cheap: a bucket is usually short or
// nearly sorted (a phase-locked population fires in key order and
// therefore re-arms in key order). A large bucket in no particular order
// exhausts the budget and goes to slices.SortFunc.
func sortByKey(evs []*Event) {
	budget := sortShiftBudget * len(evs)
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i
		for ; j > 0 && keyLess(ev, evs[j-1]); j-- {
			evs[j] = evs[j-1]
		}
		evs[j] = ev
		if budget -= i - j; budget < 0 {
			slices.SortFunc(evs, keyCompare)
			return
		}
	}
}

// fire executes one extracted event.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	ev.queued = false
	ev.loc = locNone
	e.live--
	e.executed++
	h, arg := ev.h, ev.arg
	if ev.pooled {
		// Recycle before running the callback: the callback may well
		// schedule its successor into this very slot.
		e.recycle(ev)
	} else {
		// The slot may outlive its firing (an owned timer, a closure
		// event's handle): drop what it captured.
		ev.h, ev.arg = nil, nil
	}
	h.OnEvent(e.now, arg)
}

// Step executes the next pending event. It returns false when nothing is
// scheduled.
func (e *Engine) Step() bool {
	ev := e.next(math.MaxInt64)
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
	e.flushExecuted()
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t. Events scheduled after t remain queued.
func (e *Engine) RunUntil(t Time) {
	for ev := e.next(t); ev != nil; ev = e.next(t) {
		e.fire(ev)
	}
	if e.now < t {
		e.now = t
	}
	e.flushExecuted()
}

// RunBefore executes all events scheduled strictly before t, then
// advances the clock to exactly t. It is the step of a partitioned run:
// events at t itself belong to the next step (a cross-shard arrival
// landing exactly at a step boundary must be able to preempt them).
func (e *Engine) RunBefore(t Time) {
	e.RunUntil(t - 1)
	e.now = max(e.now, t)
}

// Inject schedules h.OnEvent(now, arg) under an explicit key minted by
// another engine's HandoffKey. The event slot comes from the free list
// (pooled, non-cancellable). Injecting into the past panics: it means
// the caller violated the conservative-synchronization lookahead bound.
func (e *Engine) Inject(k EventKey, h Handler, arg any) {
	e.InjectEvent(e.grabEvent(), k, h, arg)
}

// InjectEvent is Inject into a caller-owned slot, held and re-armed
// under ScheduleEvent's rules: a cut-link mailbox keeps one for the
// earliest arrival it holds.
func (e *Engine) InjectEvent(ev *Event, k EventKey, h Handler, arg any) {
	if k.At < e.now {
		panic("sim: Inject behind the engine clock (lookahead violation)")
	}
	if ev.queued {
		panic("sim: InjectEvent on an event that is still queued")
	}
	ev.h, ev.arg = h, arg
	ev.at, ev.origin, ev.seq = k.At, k.Origin, k.Seq
	e.enqueue(ev)
}

// InjectBatch injects a slab of handoff events sharing one handler: keys
// and args are parallel slices, as a cut-link mailbox stores them.
func (e *Engine) InjectBatch(keys []EventKey, h Handler, args []any) {
	for i, k := range keys {
		e.Inject(k, h, args[i])
	}
}

// SetShardTag sets the ID of the engine's own origin, making the keys
// that engines of one partitioned simulation mint through Schedule or
// HandoffKey distinct and comparable. Call before any event is scheduled.
func (e *Engine) SetShardTag(shard int) { e.Origin.id = uint64(shard) }

// KeySource returns the random source private to the consumer id — as
// a rule the ID of the Origin owning the draws — for a consumer that
// holds its source by value. Every engine of one simulation returns the
// same source for one id, so a consumer draws the same values on
// whichever shard it lives, and no consumer's draws move another's.
func (e *Engine) KeySource(id uint64) rand.PCG {
	return *rand.NewPCG(e.seed^0x9e3779b97f4a7c15, id)
}

// KeyStream returns KeySource(id) as a Rand.
func (e *Engine) KeyStream(id uint64) *rand.Rand {
	src := e.KeySource(id)
	return rand.New(&src)
}

// AttachMeter directs the engine's executed-event accounting into m;
// a nil meter detaches. Executions already counted are not replayed
// into the new meter.
func (e *Engine) AttachMeter(m *Meter) {
	e.meter = m
	e.flushed = e.executed
}

// flushExecuted publishes locally-counted executions to the attached
// run meter, if any.
func (e *Engine) flushExecuted() {
	if e.meter == nil {
		return
	}
	if d := e.executed - e.flushed; d > 0 {
		e.meter.Add(d)
		e.flushed = e.executed
	}
}

// Ticker invokes a callback periodically. Create one with Tick. The
// ticker owns a single reusable event slot, so ticking allocates nothing
// after construction.
type Ticker struct {
	org      *Origin
	interval Time
	fn       func()
	ev       Event
	stopped  bool
}

// Tick schedules fn to run every interval, with the first invocation one
// interval from now, keyed from o (which must outlive the ticker). It
// panics if interval is not positive.
func (o *Origin) Tick(interval Time, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	t := &Ticker{org: o, interval: interval, fn: fn}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.org.ScheduleEvent(&t.ev, t.org.eng.now+t.interval, t, nil)
}

// OnEvent implements Handler; it runs one tick and re-arms.
func (t *Ticker) OnEvent(Time, any) {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.schedule()
	}
}

// Stop cancels future ticks. It is safe to call from within the callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
