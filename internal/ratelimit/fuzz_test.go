package ratelimit

import (
	"fmt"
	"slices"
	"testing"

	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Program opcodes for FuzzLeakyLimiter: each step is an opcode byte and
// an argument byte.
const (
	opSubmit  = iota // a packet of 40 + 6*arg bytes
	opSetRate        // the limit becomes 2000*arg bps (0 clamps to 1)
	opStep           // the clock moves arg*10 ms
	opToNext         // the clock moves to the reference's next departure, arg%3-1 ns off
	opCount
)

// departure is one packet a limiter emitted from its cache, and when.
type departure struct {
	id int
	at sim.Time
}

// inPlace owns a limiter by value, set up with Init on the owner's own
// origin, and is its Emitter — the way the access router's regulator
// holds one.
type inPlace struct {
	org  sim.Origin
	lim  LeakyLimiter
	eng  *sim.Engine
	outs []departure
}

func (o *inPlace) Emit(p *packet.Packet) {
	o.outs = append(o.outs, departure{int(p.Flow), o.eng.Now()})
}

// refLeaky is the reference queue: Figure 16 over a plain slice, with
// departure times computed rather than scheduled.
type refLeaky struct {
	rate       int64
	maxDelay   sim.Time
	q          []*packet.Packet
	bytes      int
	lastDepart sim.Time
	next       sim.Time // departure time of q[0], when q is not empty

	intervalBytes int64
	drops         uint64
	lastDropAt    sim.Time
	lastActive    sim.Time
	outs          []departure
}

func (r *refLeaky) schedule(now sim.Time) {
	if len(r.q) > 0 {
		r.next = max(r.lastDepart+sim.TxTime(int(r.q[0].Size), r.rate), now)
	}
}

func (r *refLeaky) submit(p *packet.Packet, now sim.Time) Verdict {
	r.lastActive = now
	if len(r.q) == 0 && now-r.lastDepart >= sim.TxTime(int(p.Size), r.rate) {
		r.lastDepart = now
		r.intervalBytes += int64(p.Size)
		return Pass
	}
	if sim.TxTime(r.bytes+int(p.Size), r.rate) > r.maxDelay {
		r.drops++
		r.lastDropAt = now
		return Drop
	}
	r.q = append(r.q, p)
	r.bytes += int(p.Size)
	if len(r.q) == 1 {
		r.schedule(now)
	}
	return Cached
}

func (r *refLeaky) setRate(bps int64, now sim.Time) {
	r.rate = max(bps, 1)
	r.schedule(now)
}

// advance emits every departure due at or before t, as RunUntil(t) does.
func (r *refLeaky) advance(t sim.Time) {
	for len(r.q) > 0 && r.next <= t {
		p, at := r.q[0], r.next
		r.q = r.q[1:]
		r.bytes -= int(p.Size)
		r.lastDepart, r.lastActive = at, at
		r.intervalBytes += int64(p.Size)
		r.outs = append(r.outs, departure{int(p.Flow), at})
		r.schedule(at)
	}
}

// FuzzLeakyLimiter: arbitrary programs of Submit, SetRate and clock
// steps through a limiter set up in place with Init and one made by
// NewLeakyLimiter, each on its own engine, in lockstep with a slice-based
// reference queue. The first byte sets the caching delay bound (20 ms
// steps). Verdicts, departure order and times, backlog and the drop and
// activity books must agree after every step, through backlogs far past
// the inline cache slots and rate changes with packets cached.
func FuzzLeakyLimiter(f *testing.F) {
	seed := func(maxDelay byte, ops ...byte) []byte { return append([]byte{maxDelay}, ops...) }
	times := func(n int, ops ...byte) []byte {
		var b []byte
		for range n {
			b = append(b, ops...)
		}
		return b
	}
	const twoSec = 100 // 100 * 20 ms
	// TestLeakyFirstPacketPasses.
	f.Add(seed(twoSec, opSubmit, 243))
	// TestLeakyOutputRateNeverExceedsLimit: 120 kbps, 50 packets 10 ms
	// apart, then the backlog drains.
	f.Add(seed(twoSec, append(append([]byte{opSetRate, 60}, times(50, opSubmit, 243, opStep, 1)...), times(10, opStep, 255)...)...))
	// TestLeakyDropsWhenDelayTooLong: 12 kbps, ten packets at once.
	f.Add(seed(twoSec, append(append([]byte{opSetRate, 6}, times(10, opSubmit, 243)...), times(4, opToNext, 1)...)...))
	// TestLeakyThroughputMetering: 120 kbps, 20 packets 100 ms apart.
	f.Add(seed(twoSec, append([]byte{opSetRate, 60}, times(20, opSubmit, 243, opStep, 10)...)...))
	// TestLeakySetRateReschedules: 12 kbps, one passes, one cached, the
	// rate raised tenfold, then the departure.
	f.Add(seed(twoSec, opSetRate, 6, opSubmit, 243, opSubmit, 243, opSetRate, 60, opToNext, 1, opStep, 255))
	// TestLeakyRateBoundProperty's shape: small packets at 100 kbps with
	// a 5 s bound, so dozens are cached; the rate falls to 1 bps and comes
	// back, and departures are stepped to 1 ns either side.
	f.Add(seed(250, append(append(append([]byte{opSetRate, 50}, times(40, opSubmit, 10)...),
		opToNext, 0, opToNext, 2, opToNext, 1, opSetRate, 0, opStep, 200, opSetRate, 255),
		times(40, opToNext, 1)...)...))

	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 1 {
			return
		}
		if len(prog) > 1+2*512 {
			prog = prog[:1+2*512]
		}
		maxDelay := sim.Time(prog[0]) * 20 * sim.Millisecond
		const rate0 = 100_000

		a := &inPlace{eng: sim.New(1)}
		a.org = a.eng.NewOrigin(7)
		a.lim.Init(&a.org, rate0, maxDelay, a)
		engB := sim.New(1)
		var outsB []departure
		b := NewLeakyLimiter(engB, rate0, maxDelay, func(p *packet.Packet) {
			outsB = append(outsB, departure{int(p.Flow), engB.Now()})
		})
		ref := &refLeaky{rate: rate0, maxDelay: maxDelay, lastDepart: -sim.Hour}

		id := 0
		for i := 1; i+1 < len(prog); i += 2 {
			op, arg := prog[i]%opCount, prog[i+1]
			now := a.eng.Now()
			where := fmt.Sprintf("step %d (op %d arg %d) at %v", i/2, op, arg, now)
			switch op {
			case opSubmit:
				id++
				size := int32(40 + 6*int(arg))
				pa := &packet.Packet{Flow: packet.FlowID(id), Size: size}
				pb, pr := *pa, *pa
				va, vb, vr := a.lim.Submit(pa), b.Submit(&pb), ref.submit(&pr, now)
				if va != vr || vb != vr {
					t.Fatalf("%s: Submit(%d B) = %v in place, %v made, reference %v", where, size, va, vb, vr)
				}
			case opSetRate:
				bps := 2000 * int64(arg)
				a.lim.SetRate(bps)
				b.SetRate(bps)
				ref.setRate(bps, now)
			case opStep, opToNext:
				to := now + sim.Time(arg)*10*sim.Millisecond
				if op == opToNext {
					to = now + 1
					if len(ref.q) > 0 {
						to = max(ref.next+sim.Time(arg%3)-1, now)
					}
				}
				a.eng.RunUntil(to)
				engB.RunUntil(to)
				ref.advance(to)
			}
			for _, l := range []struct {
				name string
				lim  *LeakyLimiter
				outs []departure
			}{{"in place", &a.lim, a.outs}, {"made", b, outsB}} {
				if !slices.Equal(l.outs, ref.outs) {
					t.Fatalf("%s: %s departures\n got %v\nwant %v", where, l.name, l.outs, ref.outs)
				}
				if l.lim.Backlog() != len(ref.q) || l.lim.Drops() != ref.drops || l.lim.LastDropAt() != ref.lastDropAt ||
					l.lim.LastActive() != ref.lastActive || l.lim.Rate() != ref.rate {
					t.Fatalf("%s: %s backlog %d drops %d at %v active %v rate %d, reference %d %d %v %v %d", where, l.name,
						l.lim.Backlog(), l.lim.Drops(), l.lim.LastDropAt(), l.lim.LastActive(), l.lim.Rate(),
						len(ref.q), ref.drops, ref.lastDropAt, ref.lastActive, ref.rate)
				}
			}
		}
		want := ref.intervalBytes * 8
		if ga, gb := a.lim.TakeIntervalThroughput(sim.Second), b.TakeIntervalThroughput(sim.Second); ga != want || gb != want {
			t.Fatalf("interval throughput %d in place, %d made, reference %d", ga, gb, want)
		}
	})
}
