package sim

import (
	"slices"
	"testing"
)

// TestRunBeforeBoundary pins RunBefore's window semantics: strictly
// earlier events run, boundary events stay queued, the clock advances
// to the boundary.
func TestRunBeforeBoundary(t *testing.T) {
	e := New(1)
	var got []int
	e.At(5, func() { got = append(got, 5) })
	e.At(10, func() { got = append(got, 10) })
	e.At(15, func() { got = append(got, 15) })
	e.RunBefore(10)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("RunBefore(10) executed %v, want [5]", got)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunBefore(20)
	if len(got) != 3 {
		t.Fatalf("second window executed %v", got)
	}
}

type orderRec struct {
	order *[]string
	name  string
}

func (r orderRec) OnEvent(Time, any) { *r.order = append(*r.order, r.name) }

// TestInjectOrdersByKey pins the cross-engine contract: an injected
// handoff executes among the destination's same-instant events where
// its (at, origin, seq) key puts it — after a lower origin, before a
// higher one — whenever either side was scheduled.
func TestInjectOrdersByKey(t *testing.T) {
	src, dst := New(1), New(1)
	link := src.NewOrigin(20)
	low, high := dst.NewOrigin(10), dst.NewOrigin(30)

	var order []string
	high.Schedule(100, orderRec{&order, "high-early"}, nil)

	// The source mints two handoffs for t=100 at t=50, mid-run.
	var keys [2]EventKey
	src.At(50, func() { keys[0], keys[1] = link.HandoffKey(100), link.HandoffKey(100) })
	src.RunUntil(50)

	// The later handoff is injected first, and a lower-origin local
	// event is scheduled last of all: neither changes the order.
	dst.RunUntil(60)
	dst.Inject(keys[1], orderRec{&order, "injected-2"}, nil)
	dst.Inject(keys[0], orderRec{&order, "injected-1"}, nil)
	low.Schedule(100, orderRec{&order, "low-late"}, nil)
	dst.RunUntil(100)

	want := []string{"low-late", "injected-1", "injected-2", "high-early"}
	if !slices.Equal(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestInjectBehindClockPanics pins the lookahead-violation guard.
func TestInjectBehindClockPanics(t *testing.T) {
	src := New(1)
	src.SetShardTag(1)
	k := src.HandoffKey(5)
	dst := New(1)
	dst.SetShardTag(0)
	dst.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Inject behind the clock should panic")
		}
	}()
	dst.Inject(k, orderRec{new([]string), "x"}, nil)
}

// TestCoordinatorSingleEngine pins the one-engine case: no lookahead is
// needed, the engine runs on the caller's goroutine with the engine's own
// window semantics, and no synchronization window is counted.
func TestCoordinatorSingleEngine(t *testing.T) {
	e := New(1)
	var got []Time
	for _, at := range []Time{5, 10, 15} {
		e.At(at, func() { got = append(got, e.Now()) })
	}
	c := NewCoordinator([]*Engine{e}, 0, nil)
	c.RunBefore(10)
	if !slices.Equal(got, []Time{5}) || c.Now() != 10 {
		t.Fatalf("RunBefore(10) executed %v, Now = %d; want [5], 10", got, c.Now())
	}
	c.RunUntil(15)
	if !slices.Equal(got, []Time{5, 10, 15}) || c.Now() != 15 {
		t.Fatalf("RunUntil(15) executed %v, Now = %d; want [5 10 15], 15", got, c.Now())
	}
	if c.Windows() != 0 {
		t.Fatalf("Windows = %d, want 0", c.Windows())
	}
	c.Stop()
}

// TestCoordinatorWindows drives two engines exchanging "packets"
// through a toy drain hook and checks lockstep windows and cross-shard
// delivery up to the final instant.
func TestCoordinatorWindows(t *testing.T) {
	a := New(1)
	a.SetShardTag(0)
	b := New(1)
	b.SetShardTag(1)
	const lookahead = 10

	// Shard A emits a handoff every 7 ticks, landing lookahead later on
	// shard B; the mailbox is a slice drained at window starts.
	type msg struct{ key EventKey }
	var box []msg
	delivered := 0
	var emit func()
	emit = func() {
		box = append(box, msg{a.HandoffKey(a.Now() + lookahead)})
		if a.Now()+7 <= 100 {
			a.At(a.Now()+7, emit)
		}
	}
	a.At(7, emit)

	c := NewCoordinator([]*Engine{a, b}, lookahead, nil)
	c.SetDrain(func(shard int, deadline Time) bool {
		if shard != 1 {
			return false
		}
		hit := false
		for _, m := range box {
			b.Inject(m.key, orderRec{new([]string), "pkt"}, nil)
			delivered++
			if m.key.At <= deadline {
				hit = true
			}
		}
		box = box[:0]
		return hit
	})
	c.RunUntil(110)
	c.Stop()

	if a.Now() != 110 || b.Now() != 110 {
		t.Fatalf("clocks %d/%d, want 110/110", a.Now(), b.Now())
	}
	// Emissions at 7, 14, ..., 98 => 14 handoffs, all delivered and all
	// executed (the last lands at 108 <= 110).
	if delivered != 14 {
		t.Fatalf("delivered %d handoffs, want 14", delivered)
	}
	if b.Pending() != 0 {
		t.Fatalf("%d undelivered arrivals pending on B", b.Pending())
	}
	if c.Windows() == 0 {
		t.Fatal("no synchronization windows recorded")
	}
}
