package main

import (
	"math"
	"runtime"
	"time"
)

// A layer probe times one public call of one layer in a fixed-count
// loop over seeded inputs. Every probe reports the fastest of five
// loops (the least disturbed one), in nanoseconds per operation unless
// its name says otherwise.

const probeLoops = 5

// ledger collects the per-layer rows of a traced run.
type ledger struct {
	div  int // divides every loop count (smoke scale)
	vals map[string]float64
}

func (l *ledger) set(name string, v float64) { l.vals[name] = v }

// count scales a probe's loop count.
func (l *ledger) count(n int) int { return max(1, n/l.div) }

// bestNs runs loop(n) probeLoops times and returns the fastest
// nanoseconds per operation.
func bestNs(n int, loop func(n int)) float64 {
	best := math.Inf(1)
	for i := 0; i < probeLoops; i++ {
		t0 := time.Now()
		loop(n)
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return best
}

// bestOf runs fn the given number of times and returns its fastest wall
// in seconds: for probes whose operation is one long call.
func bestOf(times int, fn func()) float64 {
	best := math.Inf(1)
	for i := 0; i < times; i++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0).Seconds())
	}
	return best
}

// allocsPerOp returns heap allocations per operation of loop(n), after
// one untimed pass has warmed pools and free lists.
func allocsPerOp(n int, loop func(n int)) float64 {
	loop(n)
	runtime.GC()
	m0 := mallocs()
	loop(n)
	return float64(mallocs()-m0) / float64(n)
}

// xorshift is the probes' seeded input stream.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func newXorshift(seed uint64) *xorshift {
	x := xorshift(seed*0x9e3779b97f4a7c15 | 1)
	return &x
}
