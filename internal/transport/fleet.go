package transport

import (
	"math/rand/v2"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// FleetSource is the aggregate-sender transport: one paced source
// standing in for Senders statistically homogeneous UDP senders behind
// a single attachment host. It emits the fleet's combined offered load
// (Senders × per-sender rate) on one flow; the per-sender AIMD and
// rate-limiter state it would otherwise fan out lives in the access
// router, whose limiter parameters scale by the attachment node's
// SenderWeight in closed form.
//
// Packet pacing is jittered by a per-fleet deterministic RNG stream
// (sim.Engine.KeyStream keyed by the attachment node, so the draw
// sequence is identical on every shard layout): a homogeneous fleet is
// statistically smooth, not phase-locked, and the jitter keeps the
// aggregate from degenerating into a perfectly periodic pulse train
// that would alias against queue and control-interval boundaries.
//
// Exact fan-out (per-sender hosts, flows split on demand from the same
// RNG stream discipline) is the workload layer's job: a fleet spec
// materializes individual senders when a probe, attack controller, or
// timeline mutation needs per-sender identity, and uses this aggregate
// path everywhere else.
type FleetSource struct {
	Dst     packet.NodeID
	Flow    packet.FlowID
	Senders int
	// RateBps is the PER-SENDER offered load; the source emits
	// Senders × RateBps on the wire.
	RateBps int64
	PktSize int32

	host    *netsim.Host
	org     sim.Origin
	rng     *rand.Rand
	running bool
	// ev is the owned pacing event; the steady-state emit loop
	// allocates nothing.
	ev   sim.Event
	sent uint64
}

// fleetPace dispatches the fleet's owned pacing event.
type fleetPace FleetSource

func (h *fleetPace) OnEvent(sim.Time, any) { (*FleetSource)(h).sendNext() }

// NewFleetSource creates an aggregate source for senders homogeneous
// UDP senders. rng must be the fleet's private deterministic stream —
// shard-invariant by construction (sim.Engine.KeyStream keyed by the
// attachment node's ID). Call Start to begin.
func NewFleetSource(host *netsim.Host, dst packet.NodeID, flow packet.FlowID, senders int, rateBps int64, pktSize int32, rng *rand.Rand) *FleetSource {
	if senders < 1 {
		panic("transport: FleetSource needs at least one sender")
	}
	return &FleetSource{
		Dst: dst, Flow: flow, Senders: senders, RateBps: rateBps, PktSize: pktSize,
		host: host, org: host.Node.NewOrigin(), rng: rng,
	}
}

// Start begins transmission.
func (f *FleetSource) Start() {
	f.running = true
	f.ev.Cancel() // restart-safe
	f.sendNext()
}

// Stop halts the source.
func (f *FleetSource) Stop() {
	f.running = false
	f.ev.Cancel()
}

// SentPackets returns the number of packets emitted.
func (f *FleetSource) SentPackets() uint64 { return f.sent }

func (f *FleetSource) sendNext() {
	if !f.running {
		return
	}
	f.emit()
	// Aggregate inter-packet gap, jittered uniformly over [0.5, 1.5) of
	// the nominal spacing: mean 1.0 preserves the offered load exactly,
	// and the fleet's RNG stream makes the draw order independent of
	// shard layout.
	gap := sim.TxTime(int(f.PktSize), f.RateBps*int64(f.Senders))
	jittered := sim.Time(float64(gap) * (0.5 + f.rng.Float64()))
	if jittered < 1 {
		jittered = 1
	}
	f.org.ScheduleEvent(&f.ev, f.org.Now()+jittered, (*fleetPace)(f), nil)
}

func (f *FleetSource) emit() {
	p := f.host.NewPacket()
	p.Dst = f.Dst
	p.Flow = f.Flow
	p.Kind = packet.KindRegular
	p.Proto = packet.ProtoUDP
	p.Size = f.PktSize
	p.Payload = f.PktSize - packet.SizeIPUDP - packet.SizeNetFenceMx - packet.SizePassport
	f.host.Send(p)
	f.sent++
}
