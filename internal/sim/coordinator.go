package sim

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Coordinator drives N shard engines through conservative parallel
// discrete-event simulation with per-shard clocks: each shard runs on its
// own worker goroutine and publishes its clock, the instant before which
// it has executed every event, and executes only events that lie strictly
// before every other shard's published clock plus the lookahead L (the
// minimum cut-link propagation delay). A drain hook per shard moves the
// cross-shard handoffs pending for it onto its engine before each step.
//
// Safety argument: an event at instant T can influence another shard
// only through a cut link whose delay is >= L, so its earliest
// cross-shard effect lands at or after T+L. A shard whose neighbour has
// published clock c has therefore been sent, before that publication,
// every handoff landing before c+L; it reads the clock, drains, and runs
// up to c+L at most. The model-derived keys carried by the handoffs (see
// EventKey) order them exactly as a single global engine would have, so
// goroutine timing decides only when a shard runs, never what it runs.
// The atomic store of a clock and its load by a neighbour are the one
// happens-before edge per step that the handoff buffers rely on.
//
// Steps: a shard advances one step at a time, from its clock to the next
// multiple of L/stepsPerLookahead (or the call's target), so the steps,
// and the instants at which the drain hook runs, are the same on every
// run of a simulation whatever the goroutines do. A shard whose next step
// is not yet safe parks until a neighbour publishes a clock; a lighter
// shard runs up to one lookahead ahead instead of waiting at every
// window.
//
// Each shard's worker is labeled shard=<name> for pprof, so CPU profiles
// attribute hot paths to partitions.
//
// A coordinator over one engine has nothing to synchronize: it runs the
// engine on the caller's goroutine, starts no workers, counts no steps
// and needs no lookahead.
type Coordinator struct {
	engines   []*Engine
	lookahead Time
	step      Time
	// names label the shard workers for pprof; without one per engine a
	// worker is labeled with its shard index.
	names []string
	// drain delivers pending inbound handoffs to shard i before it runs
	// up to (not including) end. It runs on the shard's worker, and on
	// the caller's goroutine at the end of every Run* call, when every
	// shard has reached the target.
	drain func(shard int, end Time)

	now     Time
	windows uint64

	// serialized accumulates each shard's execute wall-clock
	// nanoseconds — the Amdahl-serial portion of the run. Slot i is
	// written only on shard i's worker goroutine; read it after a Run*
	// call returns (the call's WaitGroup is the happens-before edge).
	serialized []int64

	clocks  []shardClock
	jobs    []chan runJob
	wg      sync.WaitGroup
	started bool
	stopped bool
}

// stepsPerLookahead divides the lookahead into the steps a shard
// publishes its clock after: the finer the step, the closer a shard
// follows its neighbours, and the more often it drains and publishes.
// On the 2-shard Passport cell quarters and eighths run alike, and
// quarters halve what a short sharded run spends on steps.
const stepsPerLookahead = 4

// shardClock is one shard's published clock and its parking place — the
// step end it waits to run to, and whether it is parked — padded to its
// own cache lines: every other shard polls it.
type shardClock struct {
	clock  atomic.Int64
	need   atomic.Int64
	parked atomic.Bool
	wake   chan struct{}
	_      [96]byte
}

// runJob is one Run* call as a worker sees it: advance to target,
// executing the events at target too when inclusive.
type runJob struct {
	target    Time
	inclusive bool
}

// NewCoordinator creates a coordinator over the given shard engines.
// With more than one engine the lookahead must be positive — a
// zero-delay cut link admits no conservative step.
func NewCoordinator(engines []*Engine, lookahead Time, names []string) *Coordinator {
	if len(engines) > 1 && lookahead <= 0 {
		panic("sim: coordinator lookahead must be positive")
	}
	return &Coordinator{
		engines:    engines,
		lookahead:  lookahead,
		step:       max(lookahead/stepsPerLookahead, 1),
		names:      names,
		serialized: make([]int64, len(engines)),
	}
}

// SetDrain installs the mailbox drain hook, invoked for a shard before
// each of its steps with the step's (exclusive) end, and once more for
// every shard at the end of each Run* call with the call's target.
func (c *Coordinator) SetDrain(fn func(shard int, end Time)) {
	c.drain = fn
}

// Windows returns the number of steps each shard has executed so far:
// one per lookahead/4 of simulated time, plus one per Run* call that
// ends between two step boundaries or executes its target instant. The
// count is a function of the calls made, not of goroutine timing.
func (c *Coordinator) Windows() uint64 { return c.windows }

// Now returns the instant every shard has simulated up to.
func (c *Coordinator) Now() Time {
	if len(c.engines) == 1 {
		return c.engines[0].Now()
	}
	return c.now
}

// SerializedNanos returns a copy of the per-shard execute wall-clock
// nanoseconds accumulated so far. Call it between Run* calls.
func (c *Coordinator) SerializedNanos() []int64 {
	out := make([]int64, len(c.serialized))
	copy(out, c.serialized)
	return out
}

// start spawns the labeled worker goroutines on first use.
func (c *Coordinator) start() {
	if c.started {
		return
	}
	c.started = true
	c.clocks = make([]shardClock, len(c.engines))
	c.jobs = make([]chan runJob, len(c.engines))
	for i := range c.engines {
		c.clocks[i].wake = make(chan struct{}, 1)
		c.jobs[i] = make(chan runJob)
		ch, shard := c.jobs[i], i
		name := strconv.Itoa(i)
		if len(c.names) == len(c.engines) {
			name = c.names[i]
		}
		labels := pprof.Labels("shard", name)
		go pprof.Do(context.Background(), labels, func(context.Context) {
			for job := range ch {
				c.advance(shard, job)
				c.wg.Done()
			}
		})
	}
}

// RunUntil advances every shard to exactly t, executing every event at
// or before t. Callable repeatedly with increasing t.
func (c *Coordinator) RunUntil(t Time) {
	if c.stopped {
		panic("sim: RunUntil on a stopped coordinator")
	}
	if len(c.engines) == 1 {
		c.engines[0].RunUntil(t)
		return
	}
	c.run(runJob{target: t, inclusive: true})
}

// RunBefore advances every shard to exactly t WITHOUT executing the
// events scheduled at t itself. It is the control-point step of a
// segmented run — after it returns, every event strictly before t has
// executed on every shard and no event at or after t has, so scenario
// mutations applied now land after all pre-t effects and before every
// time-t event, on every shard, exactly as on a single engine.
func (c *Coordinator) RunBefore(t Time) {
	if c.stopped {
		panic("sim: RunBefore on a stopped coordinator")
	}
	if len(c.engines) == 1 {
		c.engines[0].RunBefore(t)
		return
	}
	c.run(runJob{target: t})
}

// run hands job to every worker and waits for all of them. Each shard's
// clock starts the call at its engine's: what was scheduled at a control
// point runs no earlier than that. When the workers are done, every
// shard drains once more on the caller's goroutine, so everything handed
// off before the target is on its destination's engine at the control
// point, whatever the workers' timing was.
func (c *Coordinator) run(job runJob) {
	c.start()
	for i, e := range c.engines {
		c.clocks[i].clock.Store(int64(e.Now()))
	}
	c.wg.Add(len(c.engines))
	for _, ch := range c.jobs {
		ch <- job
	}
	c.wg.Wait()
	c.now = max(c.now, job.target)
	if c.drain != nil {
		for i := range c.engines {
			c.drain(i, c.engines[i].Now())
		}
	}
}

// advance runs shard i's side of one Run* call, step by step.
func (c *Coordinator) advance(i int, job runJob) {
	e := c.engines[i]
	stop := job.target
	if job.inclusive {
		stop++ // the last step executes the target instant
	}
	for {
		from := e.Now()
		if from >= stop {
			return
		}
		end := min((from/c.step+1)*c.step, stop)
		c.await(i, end)
		if c.drain != nil {
			c.drain(i, end)
		}
		t0 := time.Now()
		if job.inclusive && end == stop {
			e.RunUntil(job.target)
		} else {
			e.RunBefore(end)
		}
		c.serialized[i] += int64(time.Since(t0))
		if i == 0 {
			c.windows++
		}
		c.publish(i, e.Now())
		if end == stop {
			return
		}
	}
}

// ready reports whether every other shard's published clock plus the
// lookahead reaches end, so that shard i may execute events before end.
func (c *Coordinator) ready(i int, end Time) bool {
	for j := range c.clocks {
		if j != i && Time(c.clocks[j].clock.Load())+c.lookahead < end {
			return false
		}
	}
	return true
}

// await blocks shard i until it may execute events before end, parked
// until another shard publishes a clock that could let it run. The
// parked flag is set before the last check and read by publish after its
// store, so one of the two sees the other.
func (c *Coordinator) await(i int, end Time) {
	s := &c.clocks[i]
	s.need.Store(int64(end))
	for {
		s.parked.Store(true)
		if c.ready(i, end) {
			s.parked.Store(false)
			return
		}
		<-s.wake
		s.parked.Store(false)
		if c.ready(i, end) {
			return
		}
	}
}

// publish stores shard i's clock and wakes every parked shard that the
// clock no longer holds back.
func (c *Coordinator) publish(i int, clock Time) {
	c.clocks[i].clock.Store(int64(clock))
	for j := range c.clocks {
		s := &c.clocks[j]
		if j != i && s.parked.Load() && clock+c.lookahead >= Time(s.need.Load()) {
			select {
			case s.wake <- struct{}{}:
			default:
			}
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
