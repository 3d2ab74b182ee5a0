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

// The web-like source of §6.3.2: file sizes drawn from a mixture of an
// exponential body and a Pareto tail (after Luo & Marin's web-traffic
// model), clamped to [webMinBytes, webMaxBytes], with a uniform think time
// between transfers.
const (
	// webBodyMeanBytes is the mean of the exponential body.
	webBodyMeanBytes = 12_000.0
	// webTailShape and webTailScaleBytes parameterize the Pareto tail.
	webTailShape      = 1.2
	webTailScaleBytes = 10_000.0
	// webTailProb is the probability a file is drawn from the tail.
	webTailProb = 0.12
	// webMinBytes and webMaxBytes clamp file sizes (the paper caps at
	// 150 KB).
	webMinBytes int64 = 1_000
	webMaxBytes int64 = 150_000
	// webThinkMin and webThinkMax bound the uniform inter-transfer gap
	// (the paper uses 0.1-0.2 s).
	webThinkMin = 100 * sim.Millisecond
	webThinkMax = 200 * sim.Millisecond
)

// WebSource issues back-to-back small-file transfers with think times,
// each over a fresh TCP connection.
type WebSource struct {
	Dst packet.NodeID
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

// NewWebSource creates a web-like source; call Start to begin. Each
// transfer runs DefaultTCP.
func NewWebSource(host *netsim.Host, dst packet.NodeID) *WebSource {
	w := &WebSource{Dst: dst, host: host, org: host.Node.NewOrigin()}
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
	if rng.Float64() < webTailProb {
		// Pareto: xm * U^(-1/alpha).
		size = webTailScaleBytes * math.Pow(rng.Float64(), -1/webTailShape)
	} else {
		size = webBodyMeanBytes * rng.ExpFloat64()
	}
	n := int64(size)
	if n < webMinBytes {
		n = webMinBytes
	}
	if n > webMaxBytes {
		n = webMaxBytes
	}
	return n
}

func (w *WebSource) next() {
	if !w.running {
		return
	}
	size := w.FileSize()
	flow := w.host.Node.NewFlow()
	s := NewTCPSender(w.host, w.Dst, flow, size, DefaultTCP())
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
		think := webThinkMin + sim.Time(w.rng.Int64N(int64(webThinkMax-webThinkMin)+1))
		w.org.After(think, w.next)
	}
	w.cur = s
	s.Start()
}
