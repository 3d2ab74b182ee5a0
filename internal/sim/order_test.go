package sim

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestLayoutBudget pins the per-event state: the ordering key is three
// words, and an event is the key, the callback, the scheduler links and
// nothing else.
func TestLayoutBudget(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 96 {
		t.Errorf("sizeof(Event) = %d, budget 96", n)
	}
	if n := unsafe.Sizeof(EventKey{}); n > 24 {
		t.Errorf("sizeof(EventKey) = %d, budget 24", n)
	}
	// The calendar's slots live in the engine: one allocator size class.
	if n := unsafe.Sizeof(Engine{}); n > 40960 {
		t.Errorf("sizeof(Engine) = %d, budget 40960", n)
	}
}

type firing struct {
	at     Time
	origin uint64
}

type firingRec struct {
	log *[]firing
	id  uint64
}

func (r firingRec) OnEvent(now Time, _ any) { *r.log = append(*r.log, firing{now, r.id}) }

// orderAnchors are instants a few ns around which the random multisets
// below collide, one per way the calendar tells delays apart as seen from
// an earlier anchor: two instants of one bucket, a few buckets on, either
// side of a rotation boundary, later in the ring, the upper ring, either
// side of its horizon, and the heap.
var orderAnchors = []Time{
	10, 2000, 3 << bucketShift, 1<<24 - 3, 1<<24 + 5<<bucketShift, 1 << 30, 1<<32 - 3, 1 << 33,
}

// TestFiringOrderIsAFunctionOfKeys is the pure-function property: a
// fixed multiset of (origin, at) events fires in (at, origin) order
// whatever the order of the scheduling calls — across origins, within
// an origin, through Schedule or Inject, from outside the run, from
// inside earlier callbacks any distance back, from inside a callback of
// the very instant or the very bucket the event is for, and from outside
// again after a RunUntil or RunBefore that stopped short of a bucket it
// had already extracted.
func TestFiringOrderIsAFunctionOfKeys(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	ids := []uint64{3, 1 << 40, 1 << 62}
	near := func() Time { return orderAnchors[rng.IntN(len(orderAnchors))] + Time(rng.IntN(6)) }
	for trial := 0; trial < 600; trial++ {
		arms := make([]firing, 2+rng.IntN(40))
		for i := range arms {
			arms[i] = firing{at: near(), origin: ids[rng.IntN(len(ids))]}
			if trial%2 == 0 { // the dense half: every arm in one bucket
				arms[i].at = 10 + Time(rng.IntN(6))
			}
		}
		want := slices.Clone(arms)
		slices.SortStableFunc(want, func(a, b firing) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.origin, b.origin))
		})
		for _, mk := range []func(uint64) *Engine{New, NewHeapReference} {
			rng.Shuffle(len(arms), func(i, j int) { arms[i], arms[j] = arms[j], arms[i] })
			e := mk(1)
			origins := map[uint64]*Origin{}
			for _, id := range ids {
				o := e.NewOrigin(id)
				origins[id] = &o
			}
			var got []firing
			var late []func()
			stop, before := near(), rng.IntN(2) == 0
			for i, a := range arms {
				arm := func() { origins[a.origin].Schedule(a.at, firingRec{&got, a.origin}, nil) }
				if rng.IntN(4) == 0 {
					k := EventKey{At: a.at, Origin: a.origin, Seq: 1<<40 + uint64(i)}
					arm = func() { e.Inject(k, firingRec{&got, a.origin}, nil) }
				}
				switch rng.IntN(5) {
				case 0: // from outside the run
					arm()
				case 1: // from an earlier callback, any class of delay back
					e.At(max(0, a.at-near()), arm)
				case 2: // zero delay: the control origin runs first at a.at
					e.At(a.at, arm)
				case 3: // from a few ns back in a.at's own bucket, mid-batch
					e.At(max(a.at&^(1<<bucketShift-1), a.at-Time(rng.IntN(6))), arm)
				case 4: // from outside, once the run has stopped short of a.at
					if a.at > stop || before && a.at == stop {
						late = append(late, arm)
					} else {
						arm()
					}
				}
			}
			if before {
				e.RunBefore(stop)
			} else {
				e.RunUntil(stop)
			}
			for _, arm := range late {
				arm()
			}
			e.Run()
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: fired %v, want %v", trial, got, want)
			}
		}
	}
}

// TestSameInstantInsertByKey pins the zero-delay rule: an event
// scheduled for the current instant joins what remains of the batch by
// key — ahead of a pending higher origin, though its own scheduler's
// origin is higher still, and never ahead of what already ran.
func TestSameInstantInsertByKey(t *testing.T) {
	for _, mk := range []func(uint64) *Engine{New, NewHeapReference} {
		e := mk(1)
		a, b, c := e.NewOrigin(1), e.NewOrigin(2), e.NewOrigin(3)
		var order []string
		note := func(s string) func() { return func() { order = append(order, s) } }
		a.At(5, note("a1"))
		b.At(5, func() {
			order = append(order, "b1")
			c.At(5, note("c2"))
			a.At(5, note("a2"))
			b.At(5, note("b2"))
		})
		c.At(5, note("c1"))
		e.Run()
		want := []string{"a1", "b1", "a2", "b2", "c1", "c2"}
		if !slices.Equal(order, want) {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestCancelInsideTheScheduler drives the two cancellations whose
// bookkeeping the calendar added, on both engines.
func TestCancelInsideTheScheduler(t *testing.T) {
	cases := []struct {
		name string
		run  func(e *Engine, note func(string) func())
		want []string
	}{
		// b and c sit extracted in the due batch when a inserts x ahead
		// of them; cancelling c must punch c's shifted entry, not b's.
		{"due entry shifted by an insertion", func(e *Engine, note func(string) func()) {
			var c *Event
			e.At(100, func() {
				note("a")()
				e.At(150, note("x"))
				c.Cancel()
			})
			e.At(200, note("b"))
			c = e.At(300, note("c"))
			e.Run()
		}, []string{"a", "x", "b"}},
		// The upper-ring slot must read as empty again, or the cursor
		// would enter a rotation nothing lives in.
		{"only event of an upper-ring slot", func(e *Engine, note func(string) func()) {
			e.At(Second, note("gone")).Cancel()
			if w := &e.wheel; w.count != 0 || w.bits != [len(w.bits)]uint64{} {
				t.Errorf("wheel not empty after the cancel: count %d, bits %x", w.count, w.bits)
			}
			e.At(3*Second, note("late"))
			e.At(2*Second, note("early"))
			e.Run()
		}, []string{"early", "late"}},
	}
	for _, tc := range cases {
		for _, mk := range []func(uint64) *Engine{New, NewHeapReference} {
			e := mk(1)
			var order []string
			tc.run(e, func(s string) func() { return func() { order = append(order, s) } })
			if !slices.Equal(order, tc.want) || e.Pending() != 0 {
				t.Errorf("%s: order %v (pending %d), want %v", tc.name, order, e.Pending(), tc.want)
			}
		}
	}
}

// TestDeepInsertsGoToTheHeap is the shape that would make insertion into
// the executing bucket quadratic: 20,000 events spread over one bucket,
// each scheduling a successor 1 ns on, deep inside what remains of the
// batch. They fire in key order, and all but the few that belong at the
// batch's tail (each moving at most dueShiftMax entries) or past the
// bucket's end took the heap's O(log n) instead.
func TestDeepInsertsGoToTheHeap(t *testing.T) {
	const n = 20_000
	run := func(e *Engine) []firing {
		var got []firing
		origins := make([]Origin, 16)
		for i := range origins {
			origins[i] = e.NewOrigin(uint64(i + 1))
		}
		for i := 0; i < n; i++ {
			o := &origins[i%len(origins)]
			o.At(Time(i)<<bucketShift/n, func() {
				got = append(got, firing{e.Now(), o.id})
				o.After(1, func() { got = append(got, firing{e.Now(), o.id}) })
			})
		}
		e.Run()
		return got
	}
	e := New(1)
	got, want := run(e), run(NewHeapReference(1))
	if len(got) != 2*n || !slices.Equal(got, want) {
		t.Fatalf("fired %d events, reference %d; orders equal: %v", len(got), len(want), slices.Equal(got, want))
	}
	st := e.SchedStats()
	if st.Drains > 2 || st.DueInserted > 4*dueShiftMax || st.HeapPushed < n-8*dueShiftMax {
		t.Errorf("deep inserts did not go to the heap: %+v", st)
	}
}

// TestLargeUnsortedBucketSortsInNLogN: a 20,000-event bucket placed in
// descending key order exhausts the insertion sort's budget and goes to
// slices.SortFunc. Timed against the insertion sort it must not be.
func TestLargeUnsortedBucketSortsInNLogN(t *testing.T) {
	const n = 20_000
	descending := func() []*Event {
		evs := make([]*Event, n)
		for i := range evs {
			evs[i] = &Event{at: Time(n - i), origin: uint64(i % 7), seq: uint64(i)}
		}
		return evs
	}
	evs := descending()
	t0 := time.Now()
	sortByKey(evs)
	took := time.Since(t0)
	if !slices.IsSortedFunc(evs, func(a, b *Event) int { return cmp.Compare(a.at, b.at) }) {
		t.Fatal("bucket not sorted")
	}
	if testing.Short() {
		return
	}
	evs = descending()
	t0 = time.Now()
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && keyLess(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	if quadratic := time.Since(t0); took > quadratic/10 {
		t.Errorf("sortByKey took %v on a descending bucket, the insertion sort %v", took, quadratic)
	}
}

// TestKeyCompareIsKeyLess: the fallback's three-way comparison orders
// every pair of keys as keyLess does, ties in the first and second terms
// included, and a dense bucket of such ties placed in reverse key order —
// past the insertion sort's budget — comes out in key order.
func TestKeyCompareIsKeyLess(t *testing.T) {
	var keys []*Event
	for at := range 3 {
		for origin := range 3 {
			for seq := range 3 {
				keys = append(keys, &Event{at: Time(at), origin: uint64(origin), seq: uint64(seq)})
			}
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			if c := keyCompare(a, b); (c < 0) != keyLess(a, b) || (c > 0) != keyLess(b, a) {
				t.Fatalf("keyCompare(%d/%d/%d, %d/%d/%d) = %d", a.at, a.origin, a.seq, b.at, b.origin, b.seq, c)
			}
		}
	}
	bucket := make([]*Event, 0, 600)
	for i := 599; i >= 0; i-- {
		bucket = append(bucket, &Event{at: Time(i / 60), origin: uint64(i / 6 % 10), seq: uint64(i % 6)})
	}
	sortByKey(bucket)
	for i := 1; i < len(bucket); i++ {
		if !keyLess(bucket[i-1], bucket[i]) {
			t.Fatalf("bucket out of key order at %d", i)
		}
	}
}

// TestIdleCursorFollowsTheClock: with nothing pending outside the heap
// the cursor is pinned to the clock, forwards after an idle stretch and
// backwards after a peek ahead whose event was cancelled, so what is
// scheduled next is placed in the ring and not left to the heap.
func TestIdleCursorFollowsTheClock(t *testing.T) {
	e := New(1)
	far := e.At(3*Second, func() {})
	e.RunUntil(Second) // extracts far's bucket, two seconds ahead
	far.Cancel()
	e.At(Second+Millisecond, func() {})
	e.Run()
	e.RunUntil(30 * Second)
	e.At(30*Second+Millisecond, func() {})
	if st := e.SchedStats(); st.Placed-st.Cascaded != 3 || st.HeapPushed != 0 {
		t.Fatalf("idle cursor did not follow the clock: %+v", st)
	}
}
