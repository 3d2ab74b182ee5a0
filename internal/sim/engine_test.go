package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Fatalf("Second.Seconds() = %v, want 1", Second.Seconds())
	}
	if Millisecond.Millis() != 1.0 {
		t.Fatalf("Millisecond.Millis() = %v, want 1", Millisecond.Millis())
	}
	if got := FromSeconds(2.5); got != 2*Second+500*Millisecond {
		t.Fatalf("FromSeconds(2.5) = %v", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.500s" {
		t.Fatalf("String() = %q", got)
	}
}

func TestTxTime(t *testing.T) {
	// 1500 bytes at 12 kbps is exactly one second.
	if got := TxTime(1500, 12000); got != Second {
		t.Fatalf("TxTime(1500, 12000) = %v, want 1s", got)
	}
	if got := TxTime(1500, 0); got != 0 {
		t.Fatalf("TxTime with zero rate = %v, want 0", got)
	}
	if got := TxTime(1000, 8000); got != Second {
		t.Fatalf("TxTime(1000, 8000) = %v, want 1s", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.At(30*Millisecond, func() { order = append(order, 3) })
	e.At(10*Millisecond, func() { order = append(order, 1) })
	e.At(20*Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v", order)
	}
	if e.Now() != 30*Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of scheduling order: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := New(1)
	ran := false
	ev := e.At(Second, func() { ran = true })
	ev.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event executed")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Cancelling twice must be harmless, as must cancelling nil.
	ev.Cancel()
	var nilEv *Event
	nilEv.Cancel()
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := New(1)
	e.At(Second, func() {
		// Scheduling in the past runs "now", not before.
		e.At(0, func() {
			if e.Now() != Second {
				t.Errorf("past event ran at %v", e.Now())
			}
		})
	})
	e.Run()
}

func TestEngineAfterNegativeClamps(t *testing.T) {
	e := New(1)
	ran := false
	e.After(-5*Second, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative After never ran")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, d := range []Time{Second, 2 * Second, 3 * Second} {
		d := d
		e.At(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2 * Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2*Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	// Advancing with nothing due still moves the clock.
	e.RunUntil(2500 * Millisecond)
	if e.Now() != 2500*Millisecond {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(Millisecond, recurse)
		}
	}
	e.After(Millisecond, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 100*Millisecond {
		t.Fatalf("clock = %v, want 100ms", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := New(1)
	count := 0
	tk := e.Tick(10*Millisecond, func() {
		count++
		if count == 5 {
			tk2 := count // silence linter about capture; no-op
			_ = tk2
		}
	})
	e.RunUntil(55 * Millisecond)
	if count != 5 {
		t.Fatalf("ticks = %d, want 5", count)
	}
	tk.Stop()
	e.RunUntil(200 * Millisecond)
	if count != 5 {
		t.Fatalf("ticker fired after Stop: %d", count)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := New(1)
	count := 0
	var tk *Ticker
	tk = e.Tick(Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestTickerPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive interval")
		}
	}()
	New(1).Tick(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []int64 {
		e := New(seed)
		rng := e.KeyStream(1)
		var samples []int64
		e.Tick(Millisecond, func() {
			samples = append(samples, rng.Int64N(1000))
		})
		e.RunUntil(20 * Millisecond)
		return samples
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestHeapOrderProperty drives the heap with random schedules and verifies
// events always pop in non-decreasing time order.
func TestHeapOrderProperty(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		e := New(seed)
		var times []Time
		var popped []Time
		for i := 0; i < int(n)+1; i++ {
			at := Time(rng.Int64N(int64(Second)))
			times = append(times, at)
			e.At(at, func() { popped = append(popped, e.Now()) })
		}
		e.Run()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(popped) != len(times) {
			return false
		}
		for i := range times {
			if popped[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelProperty randomly cancels a subset of events and checks that
// exactly the surviving ones execute.
func TestCancelProperty(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		e := New(seed)
		total := int(n) + 1
		executed := make([]bool, total)
		evs := make([]*Event, total)
		for i := 0; i < total; i++ {
			i := i
			evs[i] = e.At(Time(rng.Int64N(int64(Second))), func() { executed[i] = true })
		}
		cancelled := make([]bool, total)
		for i := 0; i < total; i++ {
			if rng.IntN(2) == 0 {
				evs[i].Cancel()
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < total; i++ {
			if executed[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000)*Microsecond, func() {})
		if e.Pending() > 4096 {
			e.RunUntil(e.Now() + Millisecond)
		}
	}
	e.Run()
}
