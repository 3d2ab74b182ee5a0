package ratelimit

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netfence/internal/packet"
	"netfence/internal/sim"
)

func TestCost(t *testing.T) {
	wants := map[uint8]float64{0: 0, 1: 1, 2: 2, 3: 4, 10: 512, 11: 1024}
	for level, want := range wants {
		if got := Cost(level); got != want {
			t.Errorf("Cost(%d) = %v, want %v", level, got, want)
		}
	}
}

func TestRequestLimiterLevel0Free(t *testing.T) {
	r := NewRequestLimiter(0)
	for i := 0; i < 10_000; i++ {
		if !r.Admit(0, 0) {
			t.Fatal("level-0 packet limited")
		}
	}
}

func TestRequestLimiterRate(t *testing.T) {
	r := NewRequestLimiter(0)
	// Drain the initial bucket.
	for r.Admit(1, 0) {
	}
	// At 1 token/ms, exactly ~100 level-1 packets fit in 100 ms.
	admitted := 0
	for i := 1; i <= 100; i++ {
		if r.Admit(1, sim.Time(i)*sim.Millisecond) {
			admitted++
		}
	}
	if admitted < 99 || admitted > 100 {
		t.Fatalf("admitted %d level-1 packets in 100ms, want ~100", admitted)
	}
}

func TestRequestLimiterLevelHalving(t *testing.T) {
	// Admitted rate at level k must be half the rate at level k-1.
	count := func(level uint8) int {
		r := NewRequestLimiter(0)
		for r.Admit(level, 0) { // drain initial depth
		}
		n := 0
		for i := 1; i <= 10_000; i++ { // 10 s
			if r.Admit(level, sim.Time(i)*sim.Millisecond) {
				n++
			}
		}
		return n
	}
	c2, c3 := count(2), count(3)
	ratio := float64(c2) / float64(c3)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("level-2/level-3 admitted ratio = %f (%d vs %d), want ~2", ratio, c2, c3)
	}
}

func TestRequestLimiterWaitBuysPriority(t *testing.T) {
	r := NewRequestLimiter(0)
	for r.Admit(1, 0) {
	}
	// After ~1s of waiting the sender can afford level 11 (cost 1024),
	// the §6.3.1 story: waiting time buys priority.
	lvl := AffordableLevel(1050 * sim.Millisecond)
	if lvl != 11 {
		t.Fatalf("affordable level after ~1s = %d, want 11", lvl)
	}
	if !r.Admit(11, 1050*sim.Millisecond) {
		t.Fatal("level-11 packet rejected after ~1s wait")
	}
	// Bucket drained again: the same level is immediately unaffordable.
	if r.Admit(11, 1060*sim.Millisecond) {
		t.Fatal("second level-11 admitted without waiting")
	}
}

// Property: the sender's estimate agrees with the router's bucket. After
// a drained limiter has refilled for w, a request at AffordableLevel(w) is
// admitted, and every level above AffordableLevel(w + 1 ms) is refused:
// the leftover after draining is under one token, 1 ms of refill. Waits
// run to 5 s, past both the bucket's 2.048 s to fill and the 4.096 s an
// estimate with twice the depth would need to claim level 13.
func TestAffordableLevelMatchesLimiterProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		r := NewRequestLimiter(0)
		for r.Admit(1, 0) {
		}
		w := sim.Time(rng.Int64N(int64(5*sim.Second) + 1))
		hi := AffordableLevel(w + sim.Millisecond)
		for level := hi + 1; level <= MaxPrioLevel; level++ {
			if r.Admit(level, w) {
				t.Logf("w=%v: level %d admitted above %d", w, level, hi)
				return false
			}
		}
		if lo := AffordableLevel(w); !r.Admit(lo, w) {
			t.Logf("w=%v: affordable level %d refused", w, lo)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestLimiterDepthCap(t *testing.T) {
	r := NewRequestLimiter(0)
	if got := r.Tokens(sim.Hour); got != DefaultTokenDepth {
		t.Fatalf("tokens after an hour = %v, want capped at %v", got, DefaultTokenDepth)
	}
}

// Property: the admitted token spend over any horizon never exceeds
// depth + rate*time.
func TestRequestLimiterSpendBoundProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		r := NewRequestLimiter(0)
		spent := 0.0
		now := sim.Time(0)
		for i := 0; i < 500; i++ {
			now += sim.Time(rng.IntN(10)) * sim.Millisecond
			level := uint8(rng.IntN(6))
			if r.Admit(level, now) {
				spent += Cost(level)
			}
		}
		budget := DefaultTokenDepth + DefaultTokenRate*now.Seconds()
		return spent <= budget+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func leakySetup(rate int64) (*sim.Engine, *LeakyLimiter, *[]sim.Time) {
	eng := sim.New(1)
	var departs []sim.Time
	l := NewLeakyLimiter(eng, rate, 2*sim.Second, func(p *packet.Packet) {
		departs = append(departs, eng.Now())
	})
	return eng, l, &departs
}

func TestLeakyFirstPacketPasses(t *testing.T) {
	_, l, _ := leakySetup(100_000)
	if v := l.Submit(&packet.Packet{Size: 1500}); v != Pass {
		t.Fatalf("first packet verdict = %v, want Pass", v)
	}
}

func TestLeakyOutputRateNeverExceedsLimit(t *testing.T) {
	eng, l, departs := leakySetup(120_000) // 10 pkt/s at 1500B
	passed := 0
	for i := 0; i < 50; i++ {
		eng.At(sim.Time(i)*10*sim.Millisecond, func() {
			if l.Submit(&packet.Packet{Size: 1500}) == Pass {
				passed++
			}
		})
	}
	eng.Run()
	// All departures (passes + unleashes) must be spaced >= 100ms.
	if passed == 0 {
		t.Fatal("nothing passed")
	}
	all := *departs
	// Pass verdicts do not reach forward; reconstruct spacing from the
	// cached departures only, which must be >= pkt tx time apart.
	for i := 1; i < len(all); i++ {
		if all[i]-all[i-1] < 100*sim.Millisecond-sim.Microsecond {
			t.Fatalf("departure spacing %v < 100ms", all[i]-all[i-1])
		}
	}
}

func TestLeakyDropsWhenDelayTooLong(t *testing.T) {
	eng, l, _ := leakySetup(12_000) // 1 pkt/s; 2s max delay = 2 packets cached
	drops := 0
	for i := 0; i < 10; i++ {
		if l.Submit(&packet.Packet{Size: 1500}) == Drop {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no drops despite large backlog")
	}
	if l.Drops() != uint64(drops) {
		t.Fatalf("Drops() = %d, want %d", l.Drops(), drops)
	}
	eng.Run()
}

func TestLeakyThroughputMetering(t *testing.T) {
	eng, l, _ := leakySetup(120_000)
	for i := 0; i < 20; i++ {
		eng.At(sim.Time(i)*100*sim.Millisecond, func() {
			l.Submit(&packet.Packet{Size: 1500})
		})
	}
	eng.RunUntil(2 * sim.Second)
	tput := l.TakeIntervalThroughput(2 * sim.Second)
	// 20 packets over 2 s at exactly the link rate: ~120 kbps.
	if tput < 100_000 || tput > 130_000 {
		t.Fatalf("interval throughput = %d, want ~120000", tput)
	}
	if l.TakeIntervalThroughput(2*sim.Second) != 0 {
		t.Fatal("accumulator not reset")
	}
}

func TestLeakySetRateReschedules(t *testing.T) {
	eng, l, departs := leakySetup(12_000) // 1 pkt/s
	l.Submit(&packet.Packet{Size: 1500})  // passes
	l.Submit(&packet.Packet{Size: 1500})  // cached, due at t=1s
	// Rate x10 at t=0: the cached packet should now depart at ~100ms.
	l.SetRate(120_000)
	eng.Run()
	if len(*departs) != 1 {
		t.Fatalf("departures = %d, want 1", len(*departs))
	}
	if (*departs)[0] > 150*sim.Millisecond {
		t.Fatalf("departure at %v, want ~100ms after rate raise", (*departs)[0])
	}
}

func TestLeakyStop(t *testing.T) {
	eng, l, departs := leakySetup(12_000)
	l.Submit(&packet.Packet{Size: 1500})
	l.Submit(&packet.Packet{Size: 1500})
	l.Stop()
	eng.Run()
	if len(*departs) != 0 {
		t.Fatal("packet departed after Stop")
	}
}

// Property: over any submission pattern, bytes emitted in [0, T] never
// exceed rate*T + one packet.
func TestLeakyRateBoundProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		eng := sim.New(seed)
		const rate = 100_000
		emitted := int64(0)
		l := NewLeakyLimiter(eng, rate, 5*sim.Second, func(p *packet.Packet) {
			emitted += int64(p.Size)
		})
		now := sim.Time(0)
		for i := 0; i < 300; i++ {
			now += sim.Time(rng.IntN(20)) * sim.Millisecond
			sz := int32(64 + rng.IntN(1436))
			eng.At(now, func() {
				if l.Submit(&packet.Packet{Size: sz}) == Pass {
					emitted += int64(sz)
				}
			})
		}
		horizon := now + 20*sim.Second
		eng.RunUntil(horizon)
		bound := int64(float64(rate)*horizon.Seconds())/8 + 1500
		return emitted <= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAIMDRules(t *testing.T) {
	a := DefaultAIMD()
	// Increase only with hasIncr and sufficient utilization.
	if got := a.Adjust(100_000, true, 60_000); got != 112_000 {
		t.Fatalf("AI: got %d", got)
	}
	// Hold when under-utilizing (anti rate-limit inflation, §4.3.4).
	if got := a.Adjust(100_000, true, 40_000); got != 100_000 {
		t.Fatalf("hold: got %d", got)
	}
	// Decrease without hasIncr, regardless of throughput.
	if got := a.Adjust(100_000, false, 100_000); got != 90_000 {
		t.Fatalf("MD: got %d", got)
	}
	// Floor.
	if got := a.Adjust(100, false, 0); got != a.MinBps {
		t.Fatalf("floor: got %d", got)
	}
}

// Property: synchronized AIMD converges to fairness — Chiu & Jain. Two
// limiters with different starting rates, both always increasing when the
// sum is under capacity and decreasing otherwise, approach equal rates.
func TestAIMDConvergenceProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		a := DefaultAIMD()
		const capacity = 400_000
		r1 := int64(10_000 + rng.IntN(300_000))
		r2 := int64(10_000 + rng.IntN(300_000))
		for i := 0; i < 400; i++ {
			congested := r1+r2 > capacity
			// Both senders are greedy: throughput == rate.
			r1 = a.Adjust(r1, !congested, r1)
			r2 = a.Adjust(r2, !congested, r2)
		}
		diff := float64(r1 - r2)
		if diff < 0 {
			diff = -diff
		}
		mean := float64(r1+r2) / 2
		return diff/mean < 0.25 // within 25% of each other after 400 rounds
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
