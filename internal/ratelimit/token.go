package ratelimit

import (
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// Policer is the regular-packet rate-limiting strategy shared by the
// leaky-bucket limiter (the paper's choice) and the token-bucket variant
// (implemented for the ablation that justifies that choice, §4.3.3: a
// token bucket lets strategic senders save up credit and emit
// synchronized bursts above the rate limit).
type Policer interface {
	// Submit applies the limiter to a packet.
	Submit(p *packet.Packet) Verdict
	// Rate returns the current limit in bits per second.
	Rate() int64
	// SetRate changes the limit.
	SetRate(rateBps int64)
	// TakeIntervalThroughput returns and resets the interval's average
	// forwarded rate.
	TakeIntervalThroughput(interval sim.Time) int64
	// CreditBytes counts bytes toward the interval throughput without a
	// packet passing through.
	CreditBytes(n int)
	// Backlog returns cached packets (always 0 for a token bucket).
	Backlog() int
	// LastDropAt returns when the limiter last discarded a packet.
	LastDropAt() sim.Time
	// Stop cancels any pending timers.
	Stop()
}

// The leaky limiter is the canonical Policer.
var _ Policer = (*LeakyLimiter)(nil)

// TokenLimiter is a token-bucket regular-packet limiter: tokens (bits)
// refill at the rate limit and cap at BurstSec seconds worth. A packet
// passes immediately if the bucket holds its size; otherwise it is
// dropped (no caching). This is the design the paper explicitly rejects
// for the regular channel — after an idle period a sender can transmit a
// burst far above its rate limit, which synchronized attackers exploit
// (microscopic on-off attacks, §5.2.1).
type TokenLimiter struct {
	eng *sim.Engine
	// BurstSec is the bucket depth in seconds of credit.
	BurstSec float64

	rate   int64
	tokens float64 // bits
	last   sim.Time

	intervalBytes int64
	lastDropAt    sim.Time
}

var _ Policer = (*TokenLimiter)(nil)

// NewTokenLimiter creates a token-bucket limiter with a full bucket.
func NewTokenLimiter(eng *sim.Engine, rateBps int64, burstSec float64) *TokenLimiter {
	t := &TokenLimiter{eng: eng, BurstSec: burstSec, rate: rateBps, last: eng.Now()}
	t.tokens = t.depth()
	return t
}

func (t *TokenLimiter) depth() float64 { return float64(t.rate) * t.BurstSec }

func (t *TokenLimiter) refill(now sim.Time) {
	if now > t.last {
		t.tokens += float64(t.rate) * (now - t.last).Seconds()
		if d := t.depth(); t.tokens > d {
			t.tokens = d
		}
	}
	t.last = now
}

// Submit passes the packet if the bucket covers it, else drops.
func (t *TokenLimiter) Submit(p *packet.Packet) Verdict {
	now := t.eng.Now()
	t.refill(now)
	bits := float64(p.Size) * 8
	if bits > t.tokens {
		t.lastDropAt = now
		return Drop
	}
	t.tokens -= bits
	t.intervalBytes += int64(p.Size)
	return Pass
}

// Rate returns the current limit.
func (t *TokenLimiter) Rate() int64 { return t.rate }

// SetRate changes the limit (the bucket keeps its tokens, clamped to the
// new depth).
func (t *TokenLimiter) SetRate(rateBps int64) {
	if rateBps < 1 {
		rateBps = 1
	}
	t.refill(t.eng.Now())
	t.rate = rateBps
	if d := t.depth(); t.tokens > d {
		t.tokens = d
	}
}

// TakeIntervalThroughput returns and resets the interval accumulator.
func (t *TokenLimiter) TakeIntervalThroughput(interval sim.Time) int64 {
	bits := t.intervalBytes * 8
	t.intervalBytes = 0
	if interval <= 0 {
		return 0
	}
	return int64(float64(bits) / interval.Seconds())
}

// CreditBytes counts bytes toward the interval throughput.
func (t *TokenLimiter) CreditBytes(n int) {
	t.intervalBytes += int64(n)
}

// Backlog is always zero: token buckets do not cache.
func (t *TokenLimiter) Backlog() int { return 0 }

// LastDropAt returns the last discard instant.
func (t *TokenLimiter) LastDropAt() sim.Time { return t.lastDropAt }

// Stop is a no-op: token buckets hold no timers.
func (t *TokenLimiter) Stop() {}
