package aqm

import (
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// The detectors' fixed parameters.
const (
	// lossPth is the loss-rate threshold p_th (Figure 3: 2%).
	lossPth = 0.02
	// lossAlpha is the loss EWMA's weight for the newest sample (Figure
	// 19 uses drop_rate*0.9 + sample*0.1).
	lossAlpha = 0.1
	// utilAlpha is the utilization EWMA's weight for the newest sample.
	utilAlpha = 0.1
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

// UtilDetector implements the alternative detector for well-provisioned
// links (§4.3.1): an EWMA of link utilization with a high-load threshold
// (the paper suggests 95%).
type UtilDetector struct {
	// threshold is the utilization above which the link is considered
	// under attack.
	threshold float64
	// rateBps is the link capacity.
	rateBps int64

	util      float64
	prevBytes uint64
	prevAt    sim.Time
}

// NewUtilDetector returns a detector for a link of capacity rateBps
// that deems it under attack above the utilization threshold.
func NewUtilDetector(rateBps int64, threshold float64) *UtilDetector {
	return &UtilDetector{threshold: threshold, rateBps: rateBps}
}

// Sample folds the utilization since the last call into the EWMA and
// returns whether the link exceeds the threshold. txBytes is the link's
// cumulative transmitted byte counter.
func (d *UtilDetector) Sample(txBytes uint64, now sim.Time) bool {
	if now > d.prevAt {
		sent := float64(txBytes-d.prevBytes) * 8
		cap := float64(d.rateBps) * (now - d.prevAt).Seconds()
		if cap > 0 {
			d.util = (1-utilAlpha)*d.util + utilAlpha*(sent/cap)
		}
	}
	d.prevBytes = txBytes
	d.prevAt = now
	return d.util > d.threshold
}

// Util returns the smoothed utilization.
func (d *UtilDetector) Util() float64 { return d.util }
