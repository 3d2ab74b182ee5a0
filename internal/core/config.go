// Package core implements NetFence itself: the access-router policing
// functions (§4.2, §4.3.3, §4.3.4), the bottleneck-router monitoring
// cycle and feedback stamping (§4.3.1, §4.3.2), the end-host shim layer
// (§3.1), damage localization for compromised ASes (§4.5), and the two
// Appendix B extensions for multiple bottlenecks.
package core

import (
	"netfence/internal/sim"
)

// NetFence's fixed parameters: Figure 3 of the paper and the simulation
// values that go with them. The rest of Figure 3 lives with the
// primitives that use it: the request tokens and priority levels in
// ratelimit (DefaultTokenRate, DefaultTokenDepth, MaxPrioLevel), the AIMD
// steps in ratelimit.DefaultAIMD and the loss threshold in
// aqm.NewLossDetector.
const (
	// Ilim is the rate-limiter control interval (Figure 3: 2 s).
	Ilim = 2 * sim.Second
	// RequestCapFrac caps the request channel's share of link capacity
	// (§4.2: 5%).
	RequestCapFrac = 0.05

	// maxCacheDelay bounds the leaky limiter's packet-caching delay
	// (Figure 16's caching_delay_too_long).
	maxCacheDelay = 2 * sim.Second
	// tokenBurstSec is the credit, in seconds of rate, of the token-bucket
	// limiter Config.TokenBucketLimiter swaps in.
	tokenBurstSec = 1.0
	// detectInterval is how often a router samples its loss detector.
	detectInterval = 100 * sim.Millisecond
	// monitorHold is Tb: a monitoring cycle persists this long after the
	// last attack sign. The paper uses a few hours; one simulated hour
	// outlasts every experiment.
	monitorHold = sim.Hour
	// fallbackAfter is how long congestion must persist into a
	// monitoring cycle before Config.PerASFallback switches the regular
	// channel to per-source-AS fair queuing (§4.5).
	fallbackAfter = 20 * sim.Second
	// echoInterval is how often a receiver of one-way traffic sends
	// dedicated low-rate feedback packets (§3.1 step 4).
	echoInterval = 250 * sim.Millisecond
)

// Config holds what a NetFence deployment may vary: the switches for §4.5
// damage localization, the Appendix B extensions, Passport and the §7
// congestion quota; the knobs the ablation experiments turn; and the
// timers tests shorten to run quickly. The fixed parameters are the
// constants above.
type Config struct {
	// WSec is the feedback expiration time w in seconds (Figure 3: 4 s).
	WSec uint32
	// InitialRateBps seeds fresh rate limiters. The paper does not state
	// a value; 100 kbps sits mid-range of its 50-400 kbps target region.
	InitialRateBps int64

	// HysteresisIntervals is how many control intervals past the last
	// congestion instant a router keeps stamping L-down. Footnote 1 of
	// the paper proves 2 is the minimum robust value; the ablation
	// experiment shows what smaller values cost.
	HysteresisIntervals int
	// LimiterIdle is Ta: an idle rate limiter is removed after this long
	// without L-down feedback or limiter drops.
	LimiterIdle sim.Time

	// KeyRotate is the access-router secret rotation period; it must
	// exceed the feedback expiration window.
	KeyRotate sim.Time

	// PerASFallback enables §4.5 damage localization: if congestion
	// persists fallbackAfter into a monitoring cycle, the regular channel
	// switches to per-source-AS fair queuing.
	PerASFallback bool

	// MultiFeedback enables the Appendix B.1 extension: packets carry
	// feedback from every bottleneck on the path.
	MultiFeedback bool
	// InferLimiters enables the Appendix B.2 extension: access routers
	// infer on-path bottlenecks per destination and police through all
	// inferred limiters.
	InferLimiters bool

	// Passport enables per-packet source-AS authentication stamping at
	// access routers and verification at bottleneck routers.
	Passport bool

	// TokenBucketLimiter replaces the leaky-bucket regular limiter with
	// a token bucket of tokenBurstSec seconds of credit — the design the
	// paper rejects; kept for the ablation that demonstrates why
	// (§4.3.3, §5.2.1 on-off attacks).
	TokenBucketLimiter bool

	// CongestionQuotaBytes, when positive, enables the §7 congestion
	// quota: per (sender, bottleneck), at most this many bytes of
	// congestion traffic (forwarded while the rate limit was decreasing)
	// may pass per QuotaWindow.
	CongestionQuotaBytes int64
	QuotaWindow          sim.Time

	// UtilDetect additionally starts monitoring cycles when smoothed
	// link utilization exceeds UtilThreshold — the well-provisioned-link
	// detector of §4.3.1.
	UtilDetect    bool
	UtilThreshold float64
}

// DefaultConfig returns the paper's settings (Figure 3's w, footnote 1's
// hysteresis), idle and rotation timers long enough for any experiment,
// and every extension off.
func DefaultConfig() Config {
	return Config{
		WSec:                4,
		InitialRateBps:      100_000,
		HysteresisIntervals: 2,
		LimiterIdle:         sim.Hour,
		KeyRotate:           32 * sim.Second,
		QuotaWindow:         60 * sim.Second,
		UtilThreshold:       0.95,
	}
}
