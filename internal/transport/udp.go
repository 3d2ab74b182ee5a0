package transport

import (
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// UDPSource sends constant-rate UDP traffic — the paper's attack load is
// 1 Mbps of 1500 B packets per attacker. With OnTime/OffTime set it
// becomes the synchronized on-off source of the §6.3.2 strategic attacks:
// all sources constructed with the same phase turn on and off together,
// maximizing burst synchronization.
type UDPSource struct {
	Dst     packet.NodeID
	Flow    packet.FlowID
	RateBps int64
	PktSize int32
	// OnTime/OffTime enable on-off mode when both are positive.
	OnTime, OffTime sim.Time
	// OffRateBps, when positive, keeps a low-rate trickle flowing during
	// off phases — the strategic shape that harvests L-up feedback
	// between bursts (used by the hysteresis ablation).
	OffRateBps int64

	host    *netsim.Host
	org     sim.Origin
	running bool
	on      bool
	// ev is the owned inter-packet pacing event, reused for the whole
	// lifetime of the source (on-phase and trickle pacing alike);
	// flipEv is the owned on/off phase timer. Both live for the source's
	// lifetime so steady-state on-off traffic schedules without
	// allocating.
	ev     sim.Event
	flipEv sim.Event
}

// udpPace, udpTrickle and udpFlip dispatch the source's owned events.
type udpPace UDPSource

func (h *udpPace) OnEvent(sim.Time, any) { (*UDPSource)(h).sendNext() }

type udpTrickle UDPSource

func (h *udpTrickle) OnEvent(sim.Time, any) { (*UDPSource)(h).sendTrickle() }

type udpFlip UDPSource

func (h *udpFlip) OnEvent(sim.Time, any) { (*UDPSource)(h).phaseFlip() }

// NewUDPSource creates a constant-rate source; call Start to begin.
func NewUDPSource(host *netsim.Host, dst packet.NodeID, flow packet.FlowID, rateBps int64, pktSize int32) *UDPSource {
	return &UDPSource{
		Dst: dst, Flow: flow, RateBps: rateBps, PktSize: pktSize,
		host: host, org: host.Node.NewOrigin(),
	}
}

// Start begins transmission (in the on phase for on-off sources).
func (u *UDPSource) Start() {
	u.running = true
	u.on = true
	u.ev.Cancel() // restart-safe: disarm any pacing left from a prior run
	u.flipEv.Cancel()
	if u.OnTime > 0 && u.OffTime > 0 {
		u.scheduleFlip(u.OnTime)
	}
	u.sendNext()
}

// Stop halts the source.
func (u *UDPSource) Stop() {
	u.running = false
	u.ev.Cancel()
	u.flipEv.Cancel()
}

func (u *UDPSource) scheduleFlip(after sim.Time) {
	u.org.ScheduleEvent(&u.flipEv, u.org.Now()+after, (*udpFlip)(u), nil)
}

// phaseFlip toggles the on/off phase and re-arms the owned flip timer.
func (u *UDPSource) phaseFlip() {
	if !u.running {
		return
	}
	u.on = !u.on
	if u.on {
		u.scheduleFlip(u.OnTime)
		u.ev.Cancel() // a pending trickle event would collide with the burst pacing
		u.sendNext()
	} else {
		u.scheduleFlip(u.OffTime)
		u.ev.Cancel()
		if u.OffRateBps > 0 {
			u.sendTrickle()
		}
	}
}

// sendTrickle emits at OffRateBps during off phases.
func (u *UDPSource) sendTrickle() {
	if !u.running || u.on {
		return
	}
	u.emit()
	u.org.ScheduleEvent(&u.ev, u.org.Now()+sim.TxTime(int(u.PktSize), u.OffRateBps), (*udpTrickle)(u), nil)
}

func (u *UDPSource) sendNext() {
	if !u.running || !u.on {
		return
	}
	u.emit()
	u.org.ScheduleEvent(&u.ev, u.org.Now()+sim.TxTime(int(u.PktSize), u.RateBps), (*udpPace)(u), nil)
}

func (u *UDPSource) emit() {
	p := u.host.NewPacket()
	p.Dst = u.Dst
	p.Flow = u.Flow
	p.Kind = packet.KindRegular
	p.Proto = packet.ProtoUDP
	p.Size = u.PktSize
	// UDP payload: everything beyond the stacked headers.
	p.Payload = u.PktSize - packet.SizeIPUDP - packet.SizeNetFenceMx - packet.SizePassport
	u.host.Send(p)
}

// UDPSink counts traffic delivered to a destination (attacker throughput
// in the collusion experiments is measured here).
type UDPSink struct {
	Bytes   int64
	Packets uint64
	// OnDeliver, when set, observes each delivery.
	OnDeliver func(p *packet.Packet)
}

// NewUDPSink creates and registers a sink for flow on host.
func NewUDPSink(host *netsim.Host, flow packet.FlowID) *UDPSink {
	s := &UDPSink{}
	host.Register(flow, s)
	return s
}

// Receive tallies the packet.
func (s *UDPSink) Receive(p *packet.Packet) {
	s.Bytes += int64(p.Size)
	s.Packets++
	if s.OnDeliver != nil {
		s.OnDeliver(p)
	}
}

// RequestFlooder emits request packets at a fixed priority level and
// rate — the most effective unwanted-traffic attack against NetFence and
// TVA+ (§6.3.1). The host shim may further adjust the packets; under
// NetFence the access router's per-sender token bucket caps the admitted
// rate at the chosen level.
type RequestFlooder struct {
	Dst     packet.NodeID
	Flow    packet.FlowID
	RateBps int64
	Level   uint8

	host    *netsim.Host
	org     sim.Origin
	running bool
	ev      sim.Event
}

// flooderPace dispatches the flooder's owned pacing event.
type flooderPace RequestFlooder

func (h *flooderPace) OnEvent(sim.Time, any) { (*RequestFlooder)(h).sendNext() }

// NewRequestFlooder creates a flooder; call Start to begin.
func NewRequestFlooder(host *netsim.Host, dst packet.NodeID, flow packet.FlowID, rateBps int64, level uint8) *RequestFlooder {
	return &RequestFlooder{Dst: dst, Flow: flow, RateBps: rateBps, Level: level,
		host: host, org: host.Node.NewOrigin()}
}

// Start begins the flood.
func (f *RequestFlooder) Start() {
	f.running = true
	f.ev.Cancel() // restart-safe: disarm pacing left from a prior run
	f.sendNext()
}

// Stop halts the flood.
func (f *RequestFlooder) Stop() {
	f.running = false
	f.ev.Cancel()
}

func (f *RequestFlooder) sendNext() {
	if !f.running {
		return
	}
	p := f.host.NewPacket()
	p.Dst = f.Dst
	p.Flow = f.Flow
	p.Kind = packet.KindRequest
	p.Prio = f.Level
	p.Proto = packet.ProtoTCP
	p.Size = packet.SizeRequest
	p.TCP = packet.TCPInfo{Flags: packet.FlagSYN}
	f.host.Send(p)
	f.org.ScheduleEvent(&f.ev, f.org.Now()+sim.TxTime(packet.SizeRequest, f.RateBps), (*flooderPace)(f), nil)
}
