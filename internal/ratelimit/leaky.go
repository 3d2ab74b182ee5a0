package ratelimit

import (
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// Verdict is the outcome of submitting a packet to a LeakyLimiter,
// mirroring the PASS/CACHED/DROP results of Figure 16.
type Verdict uint8

// Submission outcomes.
const (
	// Pass: the packet may be forwarded immediately.
	Pass Verdict = iota
	// Cached: the limiter buffered the packet and will emit it later
	// through its Emitter.
	Cached
	// Drop: the packet was discarded (caching delay would be too long).
	Drop
)

// Emitter receives the packets a LeakyLimiter releases from its cache.
type Emitter interface {
	Emit(p *packet.Packet)
}

// EmitFunc adapts a function to an Emitter.
type EmitFunc func(*packet.Packet)

// Emit calls f(p).
func (f EmitFunc) Emit(p *packet.Packet) { f(p) }

// cacheInline is how many cached packets a limiter holds without a
// buffer of its own; a longer backlog moves the ring onto the heap.
const cacheInline = 8

// LeakyLimiter is the per-(sender, bottleneck) regular-packet rate
// limiter (§4.3.3, Figure 16): a queue whose de-queuing rate is the rate
// limit. The paper deliberately uses a queue rather than a token bucket —
// a token bucket would let strategic senders synchronize bursts above the
// rate limit (on-off attacks); the queue shape makes the instantaneous
// output rate never exceed the limit while still absorbing TCP's bursts.
//
// The limiter embeds its departure event and its first cache slots, so an
// owner that holds it by value and calls Init allocates nothing for it.
type LeakyLimiter struct {
	// org keys the departure timer: the owning model entity's origin, or
	// the engine's own for a limiter made by NewLeakyLimiter.
	org *sim.Origin
	// rate is the current rate limit in bits per second.
	rate int64
	// MaxDelay bounds the caching delay; packets that would wait longer
	// are dropped (Figure 16's caching_delay_too_long).
	MaxDelay sim.Time
	// out emits a cached packet when its departure time arrives.
	out Emitter

	q          queue.Ring
	inline     [cacheInline]*packet.Packet // the ring's first slots
	bytes      int
	lastDepart sim.Time
	// unleashEv is the owned departure timer, re-armed in place for every
	// cached packet; armed tracks whether it is live.
	unleashEv sim.Event
	armed     bool

	// Interval accounting for the AIMD controller (Figure 17).
	intervalBytes int64
	drops         uint64
	lastDropAt    sim.Time
	lastActive    sim.Time
}

// NewLeakyLimiter creates a limiter on the engine's own origin, emitting
// through forward. The first packet may depart immediately.
func NewLeakyLimiter(eng *sim.Engine, rateBps int64, maxDelay sim.Time, forward func(*packet.Packet)) *LeakyLimiter {
	l := new(LeakyLimiter)
	l.Init(&eng.Origin, rateBps, maxDelay, EmitFunc(forward))
	return l
}

// Init sets up a zero or stopped limiter in place: it schedules its
// departures from o, the origin of the model entity that owns it, and
// emits through out. The first packet may depart immediately.
func (l *LeakyLimiter) Init(o *sim.Origin, rateBps int64, maxDelay sim.Time, out Emitter) {
	now := o.Now()
	*l = LeakyLimiter{
		org:        o,
		rate:       rateBps,
		MaxDelay:   maxDelay,
		out:        out,
		lastDepart: now - sim.Hour, // allow an immediate first departure
		lastActive: now,
	}
	l.q.StartOn(l.inline[:])
}

// Rate returns the current rate limit in bits per second.
func (l *LeakyLimiter) Rate() int64 { return l.rate }

// SetRate changes the rate limit and reschedules any pending departure,
// Figure 17's update_packet_cache.
func (l *LeakyLimiter) SetRate(rateBps int64) {
	if rateBps < 1 {
		rateBps = 1
	}
	l.rate = rateBps
	if l.q.Len() > 0 {
		l.scheduleUnleash()
	}
}

// Submit applies Figure 16's rate_limit_regular_packet.
func (l *LeakyLimiter) Submit(p *packet.Packet) Verdict {
	now := l.org.Now()
	l.lastActive = now
	if l.q.Len() == 0 {
		// Enough time since the last departure for one packet at the
		// current rate: pass through without caching.
		if now-l.lastDepart >= sim.TxTime(int(p.Size), l.rate) {
			l.lastDepart = now
			l.intervalBytes += int64(p.Size)
			return Pass
		}
	}
	if l.delayFor(int(p.Size)) > l.MaxDelay {
		l.drops++
		l.lastDropAt = now
		return Drop
	}
	l.q.Push(p)
	l.bytes += int(p.Size)
	if l.q.Len() == 1 {
		l.scheduleUnleash()
	}
	return Cached
}

// delayFor estimates the caching delay a packet of the given size would
// experience behind the current backlog.
func (l *LeakyLimiter) delayFor(size int) sim.Time {
	return sim.TxTime(l.bytes+size, l.rate)
}

// OnEvent implements sim.Handler: the departure timer fired.
func (l *LeakyLimiter) OnEvent(sim.Time, any) {
	l.armed = false
	l.unleash()
}

// scheduleUnleash (re)arms the departure timer for the head packet,
// Figure 16's schedule_next_unleash.
func (l *LeakyLimiter) scheduleUnleash() {
	if l.armed {
		l.unleashEv.Cancel()
		l.armed = false
	}
	head := l.q.Peek()
	if head == nil {
		return
	}
	at := l.lastDepart + sim.TxTime(int(head.Size), l.rate)
	l.org.ScheduleEvent(&l.unleashEv, at, l, nil)
	l.armed = true
}

// unleash emits the head packet (Figure 16's unleash_packet).
func (l *LeakyLimiter) unleash() {
	p := l.q.Pop()
	if p == nil {
		return
	}
	l.bytes -= int(p.Size)
	now := l.org.Now()
	l.lastDepart = now
	l.lastActive = now
	l.intervalBytes += int64(p.Size)
	if l.q.Len() > 0 {
		l.scheduleUnleash()
	}
	l.out.Emit(p)
}

// CreditBytes adds to the interval throughput accumulator without
// passing a packet through the limiter. The Appendix B.2 inference
// variant uses it: a packet physically traverses only the smallest
// on-path limiter, but counts toward every inferred limiter's throughput
// as if chained through all of them.
func (l *LeakyLimiter) CreditBytes(n int) {
	l.intervalBytes += int64(n)
	l.lastActive = l.org.Now()
}

// TakeIntervalThroughput returns the average forwarded rate in bits per
// second over the elapsed interval and resets the accumulator; the AIMD
// controller calls it once per control interval.
func (l *LeakyLimiter) TakeIntervalThroughput(interval sim.Time) int64 {
	bits := l.intervalBytes * 8
	l.intervalBytes = 0
	if interval <= 0 {
		return 0
	}
	return int64(float64(bits) / interval.Seconds())
}

// Backlog returns the number of cached packets.
func (l *LeakyLimiter) Backlog() int { return l.q.Len() }

// Drops returns the cumulative packets discarded for excessive delay.
func (l *LeakyLimiter) Drops() uint64 { return l.drops }

// LastDropAt returns when the limiter last discarded a packet.
func (l *LeakyLimiter) LastDropAt() sim.Time { return l.lastDropAt }

// LastActive returns when the limiter last saw or emitted a packet.
func (l *LeakyLimiter) LastActive() sim.Time { return l.lastActive }

// Stop cancels any pending departure timer. Cached packets are abandoned;
// callers remove limiters only after an idle period (§4.3.1's Ta), when
// the cache is empty.
func (l *LeakyLimiter) Stop() {
	if l.armed {
		l.unleashEv.Cancel()
		l.armed = false
	}
}
