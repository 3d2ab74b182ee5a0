// Package ratelimit implements NetFence's three policing primitives,
// following the pseudo-code in the paper's appendix: the per-sender
// priority token bucket for request packets (Figure 15), the leaky-bucket
// packet-caching limiter for regular packets (Figure 16), and the robust
// AIMD rate-limit controller (Figure 17).
package ratelimit

import (
	"netfence/internal/sim"
)

// RequestLimiter is the per-sender token bucket policing request packets
// (§4.2, Figure 15). Tokens refill at the level-1 rate (one per l1 = 1 ms
// by default); admitting a level-k packet costs 2^(k-1) tokens, so each
// extra priority level halves a sender's admitted rate. Level-0 packets
// are never limited — they are forwarded with the lowest priority instead.
type RequestLimiter struct {
	// RatePerSec is the token refill rate (tokens per second).
	RatePerSec float64
	// Depth caps accumulated tokens, bounding how large a burst — or how
	// high a priority level — waiting can buy.
	Depth float64

	tokens float64
	last   sim.Time
}

// DefaultTokenRate is one token per millisecond (Figure 3: l1 = 1 ms).
const DefaultTokenRate = 1000.0

// DefaultTokenDepth lets a sender that has waited about two seconds
// afford a level-11 packet (2^10 tokens), matching the §6.3.1 narrative
// where legitimate senders succeed around level 10 after backoff.
const DefaultTokenDepth = 2048.0

// MaxPrioLevel bounds request priority levels: access routers clamp
// higher claims to it, and bottlenecks keep one request queue per level.
const MaxPrioLevel uint8 = 20

// NewRequestLimiter returns a limiter with the paper's defaults, starting
// with a full bucket so a sender's first requests are not penalized.
func NewRequestLimiter(now sim.Time) *RequestLimiter {
	r := &RequestLimiter{RatePerSec: DefaultTokenRate, Depth: DefaultTokenDepth, last: now}
	r.tokens = r.Depth
	return r
}

// Cost returns the token cost of a level-k request packet.
func Cost(level uint8) float64 {
	if level == 0 {
		return 0
	}
	if level >= 32 {
		level = 31
	}
	return float64(uint64(1) << (level - 1))
}

// AffordableLevel maps a sender's waiting time to the highest request
// priority level it can pay for, up to MaxPrioLevel — the sender-side
// estimate of a RequestLimiter it drained when the wait began, which has
// refilled at DefaultTokenRate up to DefaultTokenDepth since. A sender
// that has waited ~1 s can afford level 10 (cost 512), reproducing the
// §6.3.1 behaviour.
func AffordableLevel(waited sim.Time) uint8 {
	tokens := DefaultTokenRate * waited.Seconds()
	if tokens > DefaultTokenDepth {
		tokens = DefaultTokenDepth
	}
	var level uint8
	for level < MaxPrioLevel && Cost(level+1) <= tokens {
		level++
	}
	return level
}

// Admit decides whether a request packet of the given priority level may
// pass, consuming tokens on success (Figure 15).
func (r *RequestLimiter) Admit(level uint8, now sim.Time) bool {
	if level == 0 {
		return true
	}
	r.refill(now)
	cost := Cost(level)
	if cost > r.tokens {
		return false
	}
	r.tokens -= cost
	return true
}

// Tokens returns the current token count.
func (r *RequestLimiter) Tokens(now sim.Time) float64 {
	r.refill(now)
	return r.tokens
}

func (r *RequestLimiter) refill(now sim.Time) {
	if now <= r.last {
		return
	}
	r.tokens += r.RatePerSec * (now - r.last).Seconds()
	if r.tokens > r.Depth {
		r.tokens = r.Depth
	}
	r.last = now
}
