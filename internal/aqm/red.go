package aqm

import (
	"math"
	"math/rand/v2"

	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// REDConfig carries the Random Early Detection parameters. The defaults
// produced by DefaultRED mirror Figure 3 of the paper: a maximum queue of
// 0.2 s × link bandwidth, min/max thresholds at 0.5/0.75 of that, and an
// EWMA weight of 0.1.
type REDConfig struct {
	// LimitBytes is the hard queue limit Q_lim.
	LimitBytes int
	// MinThresh and MaxThresh are the RED thresholds in bytes.
	MinThresh, MaxThresh int
	// Wq is the EWMA weight for the average queue length.
	Wq float64
	// MaxP is the maximum early-drop probability at MaxThresh. The paper
	// leaves it unspecified; 0.1 is the classic RED recommendation.
	MaxP float64
	// MeanPktTime approximates the transmission time of a typical packet,
	// used to age the average while the queue idles.
	MeanPktTime sim.Time
}

// DefaultRED returns the Figure 3 RED configuration for a link of the
// given rate in bits per second.
func DefaultRED(rateBps int64) REDConfig {
	limit := int(rateBps / 8 / 5) // 0.2 s of buffering
	if limit < 2*packet.SizeData {
		limit = 2 * packet.SizeData
	}
	return REDConfig{
		LimitBytes:  limit,
		MinThresh:   limit / 2,
		MaxThresh:   limit * 3 / 4,
		Wq:          0.1,
		MaxP:        0.1,
		MeanPktTime: sim.TxTime(packet.SizeData, rateBps),
	}
}

// RED implements Random Early Detection (Floyd & Jacobson 1993) in bytes.
// Beyond the Queue interface it exposes Congested, the predicate bottleneck
// routers use to decide whether the link is overloaded when stamping
// congestion policing feedback (§4.3.4).
type RED struct {
	queue.Drops
	cfg   REDConfig
	rng   *rand.Rand
	q     queue.Ring
	bytes int
	hwm   int
	avg   float64
	count int // packets since last early drop
	idleA sim.Time
	stats queue.Stats

	// lastCongested is the most recent instant the average queue crossed
	// MinThresh or a packet was dropped; bottleneck routers derive the
	// Figure 4 hysteresis window from it.
	lastCongested sim.Time
	congestedSeen bool
}

// NewRED returns a RED queue using rng for early-drop decisions.
func NewRED(cfg REDConfig, rng *rand.Rand) *RED {
	return &RED{cfg: cfg, rng: rng, count: -1, idleA: -1}
}

// Enqueue runs the RED acceptance test and appends p if it survives;
// otherwise it discards p as "red-limit" (the hard limit) or
// "red-early".
func (r *RED) Enqueue(p *packet.Packet, now sim.Time) bool {
	r.updateAvg(now)
	drop := ""
	switch {
	case r.bytes+int(p.Size) > r.cfg.LimitBytes:
		drop = "red-limit"
	case r.avg >= float64(r.cfg.MaxThresh):
		drop = "red-early"
	case r.avg >= float64(r.cfg.MinThresh):
		pb := r.cfg.MaxP * (r.avg - float64(r.cfg.MinThresh)) /
			float64(r.cfg.MaxThresh-r.cfg.MinThresh)
		pa := pb
		if 1-float64(r.count)*pb > 0 {
			pa = pb / (1 - float64(r.count)*pb)
		}
		if r.rng.Float64() < pa {
			drop = "red-early"
		} else {
			r.count++
		}
	default:
		r.count = -1
	}
	if r.avg >= float64(r.cfg.MinThresh) || drop != "" {
		r.lastCongested = now
		r.congestedSeen = true
	}
	if drop != "" {
		r.count = 0
		r.Discard(&r.stats, p, now, drop)
		return false
	}
	r.q.Push(p)
	r.bytes += int(p.Size)
	if r.bytes > r.hwm {
		r.hwm = r.bytes
	}
	r.stats.Enqueued++
	return true
}

// updateAvg maintains the EWMA average queue size, ageing it while the
// queue has been idle.
func (r *RED) updateAvg(now sim.Time) {
	if r.q.Len() == 0 {
		if r.idleA >= 0 && r.cfg.MeanPktTime > 0 {
			m := float64(now-r.idleA) / float64(r.cfg.MeanPktTime)
			if m > 0 {
				r.avg *= math.Pow(1-r.cfg.Wq, m)
			}
		}
		r.idleA = now
	}
	r.avg = (1-r.cfg.Wq)*r.avg + r.cfg.Wq*float64(r.bytes)
}

// Dequeue pops the oldest packet.
func (r *RED) Dequeue(now sim.Time) (*packet.Packet, sim.Time) {
	p := r.q.Pop()
	if p == nil {
		return nil, 0
	}
	r.bytes -= int(p.Size)
	if r.q.Len() == 0 {
		r.idleA = now
	}
	r.stats.Dequeued++
	r.stats.DequeuedBytes += uint64(p.Size)
	return p, 0
}

// Len returns the number of queued packets.
func (r *RED) Len() int { return r.q.Len() }

// Bytes returns the number of queued bytes.
func (r *RED) Bytes() int { return r.bytes }

// Stats returns cumulative counters.
func (r *RED) Stats() queue.Stats { return r.stats }

// AvgBytes returns the EWMA average queue size.
func (r *RED) AvgBytes() float64 { return r.avg }

// Congested reports whether the average queue currently sits above the
// minimum threshold.
func (r *RED) Congested() bool { return r.avg >= float64(r.cfg.MinThresh) }

// LastCongested returns the most recent congestion instant and whether
// congestion has ever been observed.
func (r *RED) LastCongested() (sim.Time, bool) { return r.lastCongested, r.congestedSeen }

// HighWater returns the highest backlog in bytes the queue reached.
func (r *RED) HighWater() int { return r.hwm }
