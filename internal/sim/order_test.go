package sim

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
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

// TestFiringOrderIsAFunctionOfKeys is the pure-function property: a
// fixed multiset of (origin, at) events fires in (at, origin) order
// whatever the order of the scheduling calls — across origins, within
// an origin, from outside the run, from inside earlier callbacks, and
// from inside a callback of the very instant the event is for.
func TestFiringOrderIsAFunctionOfKeys(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	ids := []uint64{3, 1 << 40, 1 << 62}
	for trial := 0; trial < 300; trial++ {
		arms := make([]firing, 2+rng.IntN(40))
		for i := range arms {
			arms[i] = firing{at: 10 + Time(rng.IntN(6)), origin: ids[rng.IntN(len(ids))]}
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
			for _, a := range arms {
				arm := func() { origins[a.origin].Schedule(a.at, firingRec{&got, a.origin}, nil) }
				switch rng.IntN(3) {
				case 0: // from outside the run
					arm()
				case 1: // from an earlier instant's callback
					e.At(Time(rng.IntN(10)), arm)
				case 2: // zero delay: the control origin runs first at a.at
					e.At(a.at, arm)
				}
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
