package sim

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// Coordinator drives N shard engines through conservative parallel
// discrete-event simulation: bounded time windows of one lookahead (the
// minimum cut-link propagation delay), a barrier between windows, and a
// drain hook per shard that re-schedules cross-shard handoffs onto the
// destination engine before its window starts.
//
// Safety argument: an event executing in window [W, W+L) can influence
// another shard only through a cut link whose delay is >= L, so its
// earliest cross-shard effect lands at or after W+L — the next window.
// Draining every mailbox at each window boundary therefore delivers
// every arrival before any event that could observe it, and the
// model-derived keys carried by the handoffs (see EventKey) order them
// exactly as a single global engine would have.
//
// Each shard runs on its own persistent worker goroutine, labeled
// shard=<name> for pprof, so CPU profiles attribute hot paths to
// partitions. Determinism does not depend on goroutine scheduling: all
// cross-shard state crosses only at barriers.
//
// A coordinator over one engine has nothing to synchronize: it runs the
// engine on the caller's goroutine, starts no workers, counts no windows
// and needs no lookahead.
type Coordinator struct {
	engines   []*Engine
	lookahead Time
	// names label the shard workers for pprof; without one per engine a
	// worker is labeled with its shard index.
	names []string
	// drain delivers pending inbound handoffs to shard i, returning
	// whether anything landing at or before deadline was injected.
	drain func(shard int, deadline Time) bool

	now     Time
	windows uint64

	// serialized accumulates each shard's execute-round wall-clock
	// nanoseconds — the Amdahl-serial portion of the run. Slot i is
	// written only on shard i's worker goroutine; read it after a Run*
	// call returns (the closing barrier is the happens-before edge).
	serialized []int64

	jobs    []chan func(int)
	wg      sync.WaitGroup
	started bool
	stopped bool
}

// NewCoordinator creates a coordinator over the given shard engines.
// With more than one engine the lookahead must be positive — a
// zero-delay cut link admits no conservative window.
func NewCoordinator(engines []*Engine, lookahead Time, names []string) *Coordinator {
	if len(engines) > 1 && lookahead <= 0 {
		panic("sim: coordinator lookahead must be positive")
	}
	return &Coordinator{
		engines:    engines,
		lookahead:  lookahead,
		names:      names,
		serialized: make([]int64, len(engines)),
	}
}

// SetDrain installs the mailbox drain hook, invoked on each shard's own
// goroutine at every window start.
func (c *Coordinator) SetDrain(fn func(shard int, deadline Time) bool) {
	c.drain = fn
}

// Windows returns the number of synchronization rounds executed so far.
func (c *Coordinator) Windows() uint64 { return c.windows }

// Now returns the frontier every shard has simulated up to.
func (c *Coordinator) Now() Time {
	if len(c.engines) == 1 {
		return c.engines[0].Now()
	}
	return c.now
}

// SerializedNanos returns a copy of the per-shard execute-round
// wall-clock nanoseconds accumulated so far. Call it between Run*
// calls, when every shard is parked at the closing barrier.
func (c *Coordinator) SerializedNanos() []int64 {
	out := make([]int64, len(c.serialized))
	copy(out, c.serialized)
	return out
}

// execute runs one shard's execute round, charging its wall-clock cost
// to the shard's serialized-time slot.
func (c *Coordinator) execute(i int, end Time) {
	t0 := time.Now()
	c.engines[i].RunBefore(end)
	c.serialized[i] += int64(time.Since(t0))
}

// start spawns the labeled worker goroutines on first use.
func (c *Coordinator) start() {
	if c.started {
		return
	}
	c.started = true
	c.jobs = make([]chan func(int), len(c.engines))
	for i := range c.engines {
		c.jobs[i] = make(chan func(int))
		ch, shard := c.jobs[i], i
		name := strconv.Itoa(i)
		if len(c.names) == len(c.engines) {
			name = c.names[i]
		}
		labels := pprof.Labels("shard", name)
		go pprof.Do(context.Background(), labels, func(context.Context) {
			for job := range ch {
				job(shard)
				c.wg.Done()
			}
		})
	}
}

// round runs fn(shard) on every shard's worker concurrently and waits
// for all of them — one barrier.
func (c *Coordinator) round(fn func(int)) {
	c.wg.Add(len(c.engines))
	for i := range c.jobs {
		c.jobs[i] <- fn
	}
	c.wg.Wait()
}

// doDrain invokes the drain hook for one shard, if installed.
func (c *Coordinator) doDrain(shard int, deadline Time) bool {
	if c.drain == nil {
		return false
	}
	return c.drain(shard, deadline)
}

// RunUntil advances every shard to exactly t: lookahead-sized windows
// with a drain+barrier between each, then the final instant. Callable
// repeatedly with increasing t.
func (c *Coordinator) RunUntil(t Time) {
	if c.stopped {
		panic("sim: RunUntil on a stopped coordinator")
	}
	if len(c.engines) == 1 {
		c.engines[0].RunUntil(t)
		return
	}
	c.start()
	for c.now < t {
		end := c.now + c.lookahead
		if end > t {
			end = t
		}
		// Two barriers per window: every shard drains its inboxes while
		// no producer runs, then every shard executes. A combined phase
		// would let shard A start filling a mailbox the still-draining
		// shard B is truncating.
		//
		// Every window — including the last — is exclusive of its end:
		// events at exactly t must wait until the barrier below has
		// delivered the cross-shard arrivals landing at t, or a local
		// time-t event would execute ahead of an arrival whose key sorts
		// before it.
		c.round(func(i int) { c.doDrain(i, end) })
		c.round(func(i int) { c.execute(i, end) })
		c.windows++
		c.now = end
	}
	c.settle(t)
}

// RunBefore advances every shard to exactly t WITHOUT executing the
// events scheduled at t itself: the window loop of RunUntil with no
// settle phase. It is the control-point step of a segmented run — after
// it returns, every event strictly before t has executed on every
// shard and no event at or after t has, so scenario mutations applied
// now land after all pre-t effects and before every time-t event, on
// every shard, exactly as on a single engine. Handoffs landing exactly
// at t are delivered by the first drain of the next RunBefore/RunUntil
// call, still ahead of the time-t batch.
func (c *Coordinator) RunBefore(t Time) {
	if c.stopped {
		panic("sim: RunBefore on a stopped coordinator")
	}
	if len(c.engines) == 1 {
		c.engines[0].RunBefore(t)
		return
	}
	c.start()
	for c.now < t {
		end := c.now + c.lookahead
		if end > t {
			end = t
		}
		c.round(func(i int) { c.doDrain(i, end) })
		c.round(func(i int) { c.execute(i, end) })
		c.windows++
		c.now = end
	}
}

// settle executes the time-t batch at the end of a run.
func (c *Coordinator) settle(t Time) {
	// The final instant: handoffs transmitted in the last window can
	// land exactly at t; deliver them first, then execute the time-t
	// batch, interleaved by key like any other instant. Handoffs
	// minted at t land beyond t (the lookahead is positive), so the
	// confirmation rounds terminate immediately.
	injected := make([]bool, len(c.engines))
	for {
		c.round(func(i int) { injected[i] = c.doDrain(i, t) })
		c.round(func(i int) {
			t0 := time.Now()
			c.engines[i].RunUntil(t)
			c.serialized[i] += int64(time.Since(t0))
		})
		any := false
		for _, in := range injected {
			any = any || in
		}
		if !any {
			return
		}
	}
}

// Stop terminates the worker goroutines. The coordinator cannot be used
// afterwards.
func (c *Coordinator) Stop() {
	if !c.started || c.stopped {
		return
	}
	c.stopped = true
	for i := range c.jobs {
		close(c.jobs[i])
	}
}
