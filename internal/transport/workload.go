package transport

import (
	"math"
	"math/rand/v2"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// FileClient repeatedly transfers a fixed-size file over fresh TCP
// connections — the §6.3.1 workload (a 20 KB file sent again and again).
// Each attempt opens a new connection, so each pays the connection-setup
// cost through the (possibly flooded) request channel.
type FileClient struct {
	Dst       packet.NodeID
	FileBytes int64
	Cfg       TCPConfig
	// OnResult observes each attempt's duration and outcome.
	OnResult func(fct sim.Time, ok bool)
	// Gap delays the next attempt after a completion (zero = immediate).
	Gap sim.Time

	host    *netsim.Host
	org     sim.Origin
	running bool
	cur     *TCPSender

	Completed int
	Failed    int
}

// NewFileClient creates a repeating client; call Start to begin.
func NewFileClient(host *netsim.Host, dst packet.NodeID, fileBytes int64, cfg TCPConfig) *FileClient {
	return &FileClient{Dst: dst, FileBytes: fileBytes, Cfg: cfg,
		host: host, org: host.Node.NewOrigin()}
}

// Start begins the first transfer.
func (c *FileClient) Start() {
	c.running = true
	c.next()
}

// Stop prevents further transfers (the in-flight one finishes).
func (c *FileClient) Stop() {
	c.running = false
	if c.cur != nil {
		c.cur.Close()
	}
}

func (c *FileClient) next() {
	if !c.running {
		return
	}
	flow := c.host.Node.NewFlow()
	s := NewTCPSender(c.host, c.Dst, flow, c.FileBytes, c.Cfg)
	s.OnComplete = func(fct sim.Time, ok bool) {
		if ok {
			c.Completed++
		} else {
			c.Failed++
		}
		if c.OnResult != nil {
			c.OnResult(fct, ok)
		}
		c.cur = nil
		if c.Gap > 0 {
			c.org.After(c.Gap, c.next)
		} else {
			c.next()
		}
	}
	c.cur = s
	s.Start()
}

// WebConfig parameterizes the web-like source of §6.3.2: file sizes drawn
// from a mixture of an exponential body and a Pareto tail (after Luo &
// Marin's web-traffic model), truncated to MaxBytes, with a uniform think
// time between transfers.
type WebConfig struct {
	TCP TCPConfig
	// BodyMeanBytes is the mean of the exponential body.
	BodyMeanBytes float64
	// TailShape and TailScaleBytes parameterize the Pareto tail.
	TailShape, TailScaleBytes float64
	// TailProb is the probability a file is drawn from the tail.
	TailProb float64
	// MinBytes and MaxBytes clamp file sizes (the paper caps at 150 KB).
	MinBytes, MaxBytes int64
	// ThinkMin and ThinkMax bound the uniform inter-transfer gap (the
	// paper uses 0.1-0.2 s).
	ThinkMin, ThinkMax sim.Time
}

// DefaultWeb returns the §6.3.2 web workload parameters.
func DefaultWeb() WebConfig {
	return WebConfig{
		TCP:            DefaultTCP(),
		BodyMeanBytes:  12_000,
		TailShape:      1.2,
		TailScaleBytes: 10_000,
		TailProb:       0.12,
		MinBytes:       1_000,
		MaxBytes:       150_000,
		ThinkMin:       100 * sim.Millisecond,
		ThinkMax:       200 * sim.Millisecond,
	}
}

// WebSource issues back-to-back small-file transfers with think times,
// each over a fresh TCP connection.
type WebSource struct {
	Dst packet.NodeID
	Cfg WebConfig
	// OnResult observes each transfer.
	OnResult func(bytes int64, fct sim.Time, ok bool)

	host    *netsim.Host
	org     sim.Origin
	rng     *rand.Rand // the source's own stream, keyed by org
	running bool
	cur     *TCPSender

	Completed      int
	Failed         int
	DeliveredBytes int64
}

// NewWebSource creates a web-like source; call Start to begin.
func NewWebSource(host *netsim.Host, dst packet.NodeID, cfg WebConfig) *WebSource {
	w := &WebSource{Dst: dst, Cfg: cfg, host: host, org: host.Node.NewOrigin()}
	w.rng = host.Network().Eng.KeyStream(w.org.ID())
	return w
}

// Start begins the first transfer.
func (w *WebSource) Start() {
	w.running = true
	w.next()
}

// Stop prevents further transfers.
func (w *WebSource) Stop() {
	w.running = false
	if w.cur != nil {
		w.cur.Close()
	}
}

// FileSize draws one file size from the mixture.
func (w *WebSource) FileSize() int64 {
	rng := w.rng
	var size float64
	if rng.Float64() < w.Cfg.TailProb {
		// Pareto: xm * U^(-1/alpha).
		size = w.Cfg.TailScaleBytes * math.Pow(rng.Float64(), -1/w.Cfg.TailShape)
	} else {
		size = w.Cfg.BodyMeanBytes * rng.ExpFloat64()
	}
	n := int64(size)
	if n < w.Cfg.MinBytes {
		n = w.Cfg.MinBytes
	}
	if n > w.Cfg.MaxBytes {
		n = w.Cfg.MaxBytes
	}
	return n
}

func (w *WebSource) next() {
	if !w.running {
		return
	}
	size := w.FileSize()
	flow := w.host.Node.NewFlow()
	s := NewTCPSender(w.host, w.Dst, flow, size, w.Cfg.TCP)
	s.OnComplete = func(fct sim.Time, ok bool) {
		if ok {
			w.Completed++
			w.DeliveredBytes += size
		} else {
			w.Failed++
		}
		if w.OnResult != nil {
			w.OnResult(size, fct, ok)
		}
		w.cur = nil
		think := w.Cfg.ThinkMin + sim.Time(w.rng.Int64N(int64(w.Cfg.ThinkMax-w.Cfg.ThinkMin)+1))
		w.org.After(think, w.next)
	}
	w.cur = s
	s.Start()
}
