package aqm

import "netfence/internal/queue"

// The detector's fixed parameters.
const (
	// lossPth is the loss-rate threshold p_th (Figure 3: 2%).
	lossPth = 0.02
	// lossAlpha is the loss EWMA's weight for the newest sample (Figure
	// 19 uses drop_rate*0.9 + sample*0.1).
	lossAlpha = 0.1
)

// LossDetector implements the attack detector of §4.3.1 and Figure 19: an
// EWMA of the regular-channel packet loss rate, sampled periodically. A
// link whose smoothed loss rate exceeds the threshold p_th is considered
// under attack, triggering a monitoring cycle.
type LossDetector struct {
	rate float64
	prev queue.Stats
}

// NewLossDetector returns a detector with the paper's parameters.
func NewLossDetector() *LossDetector { return &LossDetector{} }

// Sample folds the loss observed since the previous call into the EWMA
// and returns whether the link is currently deemed under attack.
func (d *LossDetector) Sample(s queue.Stats) bool {
	frac := s.LossFraction(d.prev)
	d.prev = s
	d.rate = (1-lossAlpha)*d.rate + lossAlpha*frac
	return d.rate > lossPth
}

// Rate returns the smoothed loss rate.
func (d *LossDetector) Rate() float64 { return d.rate }
