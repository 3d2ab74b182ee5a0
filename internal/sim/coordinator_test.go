package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
// through a toy drain hook and checks cross-shard delivery up to the
// final instant.
func TestCoordinatorWindows(t *testing.T) {
	a := New(1)
	a.SetShardTag(0)
	b := New(1)
	b.SetShardTag(1)
	const lookahead = 10

	// Shard A emits a handoff every 7 ticks, landing lookahead later on
	// shard B; the mailbox is a locked slice drained before B's steps.
	type msg struct{ key EventKey }
	var mu sync.Mutex
	var box []msg
	delivered := 0
	var emit func()
	emit = func() {
		mu.Lock()
		box = append(box, msg{a.HandoffKey(a.Now() + lookahead)})
		mu.Unlock()
		if a.Now()+7 <= 100 {
			a.At(a.Now()+7, emit)
		}
	}
	a.At(7, emit)

	c := NewCoordinator([]*Engine{a, b}, lookahead, nil)
	c.SetDrain(func(shard int, _ Time) {
		if shard != 1 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, m := range box {
			b.Inject(m.key, orderRec{new([]string), "pkt"}, nil)
			delivered++
		}
		box = box[:0]
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

// ringModel is a ring of nodes, one scheduling origin each: a node ticks
// at a period of its own, logs each tick, and hands a message to the
// next node at least a lookahead later; every message's arrival is
// logged too. In heavy spans, which pass from node to node, a tick also
// burns wall-clock time, so the nodes' loads alternate.
type ringModel struct {
	nodes   []*ringNode
	deliver func(to int, k EventKey, from int)
	// lead, when set, is called on each event with the node and the
	// instant, to watch the other shards' clocks.
	lead func(node int, now Time)
}

type ringNode struct {
	m      *ringModel
	i      int
	org    Origin
	period Time
	ticks  int
	log    []string
}

const (
	ringLookahead = 1000
	ringHeavySpan = 10 * ringLookahead
)

func newRingModel(engines []*Engine, n int) *ringModel {
	m := &ringModel{}
	for i := 0; i < n; i++ {
		nd := &ringNode{m: m, i: i, org: engines[i%len(engines)].NewOrigin(uint64(100 + i)), period: Time(97 + 13*i)}
		nd.org.Schedule(nd.period, nd, nil)
		m.nodes = append(m.nodes, nd)
	}
	return m
}

// OnEvent is a tick: log it, burn time in a heavy span, hand the next
// node a message and re-arm.
func (nd *ringNode) OnEvent(now Time, _ any) {
	if nd.m.lead != nil {
		nd.m.lead(nd.i, now)
	}
	nd.ticks++
	nd.log = append(nd.log, fmt.Sprintf("%d tick %d", now, nd.ticks))
	if int(now/ringHeavySpan)%len(nd.m.nodes) == nd.i {
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
		}
	}
	k := nd.org.HandoffKey(now + ringLookahead + Time(nd.ticks%3)*7)
	nd.m.deliver((nd.i+1)%len(nd.m.nodes), k, nd.i)
	nd.org.Schedule(now+nd.period, nd, nil)
}

// ringArrival is a message reaching node to.
type ringArrival struct {
	nd   *ringNode
	from int
}

func (a ringArrival) OnEvent(now Time, _ any) {
	if a.nd.m.lead != nil {
		a.nd.m.lead(a.nd.i, now)
	}
	a.nd.log = append(a.nd.log, fmt.Sprintf("%d from %d", now, a.from))
}

// runRing runs the ring model over shards engines (one engine: no
// coordinator workers) through a few control points to horizon and
// returns every node's log, and the most a node's event ran ahead of
// another shard's published clock.
func runRing(t *testing.T, shards, nodes int, horizon Time) (logs [][]string, lead Time) {
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = New(1)
		engines[i].SetShardTag(i)
	}
	m := newRingModel(engines, nodes)
	c := NewCoordinator(engines, ringLookahead, nil)
	type msg struct {
		k    EventKey
		from int
		to   int
	}
	boxes := make([]struct {
		sync.Mutex
		msgs []msg
	}, shards)
	m.deliver = func(to int, k EventKey, from int) {
		if shards == 1 {
			engines[0].Inject(k, ringArrival{m.nodes[to], from}, nil)
			return
		}
		b := &boxes[to%shards]
		b.Lock()
		b.msgs = append(b.msgs, msg{k, from, to})
		b.Unlock()
	}
	var maxLead atomic.Int64
	maxLead.Store(math.MinInt64)
	if shards > 1 {
		m.lead = func(node int, now Time) {
			for j := range c.clocks {
				if j == node%shards {
					continue
				}
				d := now - Time(c.clocks[j].clock.Load())
				if d >= ringLookahead {
					t.Errorf("node %d ran an event at %d, a lookahead past shard %d's clock", node, now, j)
				}
				for cur := maxLead.Load(); int64(d) > cur && !maxLead.CompareAndSwap(cur, int64(d)); cur = maxLead.Load() {
				}
			}
		}
		c.SetDrain(func(shard int, _ Time) {
			b := &boxes[shard]
			b.Lock()
			defer b.Unlock()
			for _, ms := range b.msgs {
				engines[shard].Inject(ms.k, ringArrival{m.nodes[ms.to], ms.from}, nil)
			}
			b.msgs = b.msgs[:0]
		})
	}
	for at := horizon / 7; at < horizon; at += horizon / 3 {
		c.RunBefore(at)
	}
	c.RunUntil(horizon)
	c.Stop()
	for _, nd := range m.nodes {
		logs = append(logs, nd.log)
	}
	return logs, Time(maxLead.Load())
}

// TestCoordinatorClocks: under heavy spans that pass from shard to shard,
// every node of a sharded run fires exactly the single engine's events
// in its order, a shard's events run ahead of another shard's published
// clock at some point but never by the lookahead, and eight shards on two
// Ps finish.
func TestCoordinatorClocks(t *testing.T) {
	const horizon = 32 * ringHeavySpan
	for _, shards := range []int{2, 3, 8} {
		if shards == 8 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		}
		want, _ := runRing(t, 1, 8, horizon)
		done := make(chan struct{})
		var got [][]string
		var lead Time
		go func() {
			defer close(done)
			got, lead = runRing(t, shards, 8, horizon)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("shards=%d: the run did not finish in a minute", shards)
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("shards=%d: node %d fired %d events, the single engine %d, or in another order", shards, i, len(got[i]), len(want[i]))
			}
		}
		if lead <= 0 {
			t.Errorf("shards=%d: no shard ever ran ahead of another's clock (most %d)", shards, lead)
		}
		t.Logf("shards=%d: %d events per node, a shard ran up to %d ns ahead of another's clock", shards, len(want[0]), lead)
	}
}
