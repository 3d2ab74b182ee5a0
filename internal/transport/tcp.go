// Package transport implements the end-to-end protocols driving the
// paper's workloads: a TCP Reno sender/receiver pair (slow start,
// congestion avoidance, fast retransmit, NewReno-style fast recovery,
// RFC 6298 RTO estimation, SYN backoff), constant-rate and synchronized
// on-off UDP sources, a repeating file-transfer client, and a web-like
// traffic source with a Pareto/exponential file-size mixture.
//
// Transports are defense-agnostic: they set addressing, protocol and
// payload fields, defaulting every packet to the regular channel; the
// host's defense shim reclassifies packets (e.g. SYNs become request
// packets under NetFence) and manages feedback or capabilities.
package transport

import (
	"cmp"
	"slices"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// The TCP setup of the paper's evaluation (§6.3.1).
const (
	// tcpMSS is the payload bytes per full segment. Data packets are
	// tcpMSS + 92 B of headers on the wire, 1500 B in all.
	tcpMSS = packet.SizeData - packet.SizeRequest // 1408 B
	// tcpInitRTO is the initial retransmission timeout, also used for
	// the SYN handshake (the paper sets the initial SYN RTO to 1 s).
	tcpInitRTO = sim.Second
	// tcpMinRTO and tcpMaxRTO clamp the adaptive timeout.
	tcpMinRTO = 200 * sim.Millisecond
	tcpMaxRTO = 60 * sim.Second
	// tcpMaxSYNRetries aborts connection setup after this many SYN
	// retransmissions (the paper uses nine).
	tcpMaxSYNRetries = 9
	// tcpMaxCwnd caps the congestion window in segments.
	tcpMaxCwnd = 4096
	// tcpTransferTimeout aborts a bounded transfer that has not
	// completed in time (the paper uses 200 s).
	tcpTransferTimeout = 200 * sim.Second
)

// Sender states.
const (
	tcpIdle = iota
	tcpSynSent
	tcpEstablished
	tcpDone
	tcpFailed
)

// TCPSender transfers FileBytes of data (or streams forever when
// FileBytes < 0) to a TCPReceiver registered under the same flow at the
// destination host.
type TCPSender struct {
	Dst  packet.NodeID
	Flow packet.FlowID
	// OnComplete fires once, with the transfer duration and whether it
	// succeeded (failures: SYN retries exhausted or transfer timeout).
	OnComplete func(fct sim.Time, ok bool)

	host      *netsim.Host
	org       sim.Origin
	fileBytes int64
	state     int
	started   sim.Time

	// timerEv is the one owned timer event, armed as the SYN timer
	// during the handshake and as the RTO after it: Receive cancels the
	// SYN timer at establishment, before trySend can arm the first RTO,
	// so the two roles are never pending together. synTimer and rtoTimer
	// point at it once armed in their role (nil = never armed),
	// preserving the tri-state the retransmission logic keys off.
	timerEv sim.Event

	// SYN handshake.
	synRetries int
	synRTO     sim.Time
	synTimer   *sim.Event

	// Reliability and congestion control. Sequence numbers are byte
	// offsets into the transfer.
	sndUna, sndNxt int64
	cwnd, ssthresh float64
	dupAcks        int
	recover        int64

	// RTT estimation (RFC 6298), one sample in flight (Karn's rule).
	srtt, rttvar, rto            sim.Time
	rttSeq                       int64
	rttStart                     sim.Time
	rttValid, hasSRTT, inFastRec bool
	rtoTimer                     *sim.Event
	transferTimer                *sim.Event
	retransmits                  uint64
	timeouts                     uint64
}

// tcpSYNTimer and tcpRTOTimer adapt the sender's owned timer event, in
// each of its two roles, to sim.Handler without per-arm closures.
type tcpSYNTimer TCPSender

func (h *tcpSYNTimer) OnEvent(sim.Time, any) { (*TCPSender)(h).onSYNTimeout() }

type tcpRTOTimer TCPSender

func (h *tcpRTOTimer) OnEvent(sim.Time, any) { (*TCPSender)(h).onRTO() }

// NewTCPSender creates a sender on host for a transfer of fileBytes to
// dst under the given flow (negative fileBytes streams forever). Call
// Start to begin.
func NewTCPSender(host *netsim.Host, dst packet.NodeID, flow packet.FlowID, fileBytes int64) *TCPSender {
	s := &TCPSender{
		Dst:       dst,
		Flow:      flow,
		host:      host,
		org:       host.Node.NewOrigin(),
		fileBytes: fileBytes,
		cwnd:      1,
		ssthresh:  64,
	}
	s.rto = tcpInitRTO
	s.synRTO = tcpInitRTO
	return s
}

// Start registers the sender and begins the handshake.
func (s *TCPSender) Start() {
	s.host.Register(s.Flow, s)
	s.state = tcpSynSent
	s.started = s.org.Now()
	if s.fileBytes >= 0 {
		s.transferTimer = s.org.After(tcpTransferTimeout, func() { s.finish(false) })
	}
	s.sendSYN()
}

// Retransmits returns the cumulative retransmitted segments.
func (s *TCPSender) Retransmits() uint64 { return s.retransmits }

// Established reports whether the handshake has completed.
func (s *TCPSender) Established() bool { return s.state == tcpEstablished }

func (s *TCPSender) sendSYN() {
	p := s.host.NewPacket()
	p.Dst = s.Dst
	p.Flow = s.Flow
	p.Kind = packet.KindRegular
	p.Proto = packet.ProtoTCP
	p.Size = packet.SizeRequest
	p.TCP = packet.TCPInfo{Flags: packet.FlagSYN}
	s.host.Send(p)
	s.org.ScheduleEvent(&s.timerEv, s.org.Now()+s.synRTO, (*tcpSYNTimer)(s), nil)
	s.synTimer = &s.timerEv
}

func (s *TCPSender) onSYNTimeout() {
	if s.state != tcpSynSent {
		return
	}
	s.synRetries++
	if s.synRetries > tcpMaxSYNRetries {
		s.finish(false)
		return
	}
	s.synRTO *= 2
	if s.synRTO > tcpMaxRTO {
		s.synRTO = tcpMaxRTO
	}
	s.sendSYN()
}

// Receive handles SYN-ACKs and ACKs.
func (s *TCPSender) Receive(p *packet.Packet) {
	if p.Proto != packet.ProtoTCP {
		return
	}
	switch s.state {
	case tcpSynSent:
		if p.TCP.Flags&packet.FlagSYN != 0 && p.TCP.Flags&packet.FlagACK != 0 {
			if s.synTimer != nil {
				s.synTimer.Cancel()
			}
			s.state = tcpEstablished
			s.trySend()
		}
	case tcpEstablished:
		if p.TCP.Flags&packet.FlagACK != 0 && p.TCP.Flags&packet.FlagSYN == 0 {
			s.handleACK(p.TCP.Ack)
		}
	}
}

func (s *TCPSender) handleACK(ack int64) {
	switch {
	case ack > s.sndUna:
		acked := ack - s.sndUna
		s.sndUna = ack
		if s.rttValid && ack >= s.rttSeq {
			s.sampleRTT(s.org.Now() - s.rttStart)
			s.rttValid = false
		}
		if s.inFastRec {
			if ack >= s.recover {
				s.inFastRec = false
				s.cwnd = s.ssthresh
				s.dupAcks = 0
			} else {
				// NewReno partial ACK: the next hole is lost too.
				s.retransmit(s.sndUna)
				s.cwnd -= float64(acked) / tcpMSS
				if s.cwnd < 1 {
					s.cwnd = 1
				}
			}
		} else {
			s.dupAcks = 0
			segs := float64(acked) / tcpMSS
			if s.cwnd < s.ssthresh {
				s.cwnd += segs // slow start
			} else {
				s.cwnd += segs / s.cwnd // congestion avoidance
			}
			if s.cwnd > tcpMaxCwnd {
				s.cwnd = tcpMaxCwnd
			}
		}
		if s.fileBytes >= 0 && s.sndUna >= s.fileBytes {
			s.finish(true)
			return
		}
		s.armRTO()
		s.trySend()
	case ack == s.sndUna && s.sndNxt > s.sndUna:
		s.dupAcks++
		if s.inFastRec {
			s.cwnd++ // window inflation
			s.trySend()
		} else if s.dupAcks == 3 {
			s.ssthresh = s.cwnd / 2
			if s.ssthresh < 2 {
				s.ssthresh = 2
			}
			s.recover = s.sndNxt
			s.retransmit(s.sndUna)
			s.cwnd = s.ssthresh + 3
			s.inFastRec = true
			s.armRTO()
		}
	}
}

func (s *TCPSender) sampleRTT(r sim.Time) {
	if !s.hasSRTT {
		s.srtt = r
		s.rttvar = r / 2
		s.hasSRTT = true
	} else {
		diff := s.srtt - r
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + r) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < tcpMinRTO {
		s.rto = tcpMinRTO
	}
	if s.rto > tcpMaxRTO {
		s.rto = tcpMaxRTO
	}
}

// trySend emits new segments permitted by the congestion window.
func (s *TCPSender) trySend() {
	if s.state != tcpEstablished {
		return
	}
	wnd := int64(s.cwnd * tcpMSS)
	for s.sndNxt < s.sndUna+wnd {
		n := int64(tcpMSS)
		if s.fileBytes >= 0 {
			if rem := s.fileBytes - s.sndNxt; rem <= 0 {
				break
			} else if rem < n {
				n = rem
			}
		}
		s.emit(s.sndNxt, int32(n))
		if !s.rttValid {
			s.rttSeq = s.sndNxt + n
			s.rttStart = s.org.Now()
			s.rttValid = true
		}
		s.sndNxt += n
	}
	if s.sndNxt > s.sndUna {
		s.armRTOIfIdle()
	}
}

func (s *TCPSender) retransmit(seq int64) {
	n := int64(tcpMSS)
	if s.fileBytes >= 0 {
		if rem := s.fileBytes - seq; rem < n {
			n = rem
		}
	}
	if n <= 0 {
		return
	}
	s.retransmits++
	s.emit(seq, int32(n))
}

func (s *TCPSender) emit(seq int64, n int32) {
	p := s.host.NewPacket()
	p.Dst = s.Dst
	p.Flow = s.Flow
	p.Kind = packet.KindRegular
	p.Proto = packet.ProtoTCP
	p.Size = n + packet.SizeRequest
	p.Payload = n
	p.TCP = packet.TCPInfo{Flags: packet.FlagACK, Seq: seq}
	s.host.Send(p)
}

func (s *TCPSender) armRTO() {
	if s.rtoTimer != nil {
		s.rtoTimer.Cancel()
		s.rtoTimer = nil
	}
	if s.sndNxt > s.sndUna {
		s.org.ScheduleEvent(&s.timerEv, s.org.Now()+s.rto, (*tcpRTOTimer)(s), nil)
		s.rtoTimer = &s.timerEv
	}
}

func (s *TCPSender) armRTOIfIdle() {
	// nil = never armed; Cancelled = disarmed. A timer that fired
	// naturally is neither and must not be re-armed here (onRTO re-arms
	// itself), exactly as with the old per-arm events.
	if s.rtoTimer == nil || s.rtoTimer.Cancelled() {
		s.org.ScheduleEvent(&s.timerEv, s.org.Now()+s.rto, (*tcpRTOTimer)(s), nil)
		s.rtoTimer = &s.timerEv
	}
}

func (s *TCPSender) onRTO() {
	if s.state != tcpEstablished || s.sndNxt == s.sndUna {
		return
	}
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.inFastRec = false
	s.dupAcks = 0
	s.rttValid = false
	s.rto *= 2
	if s.rto > tcpMaxRTO {
		s.rto = tcpMaxRTO
	}
	s.retransmit(s.sndUna)
	s.sndNxt = s.sndUna + min(tcpMSS, s.remainingAt(s.sndUna))
	s.armRTO()
}

func (s *TCPSender) remainingAt(seq int64) int64 {
	if s.fileBytes < 0 {
		return tcpMSS
	}
	return s.fileBytes - seq
}

// finish completes or aborts the transfer, cancelling all timers and
// unregistering the agent.
func (s *TCPSender) finish(ok bool) {
	if s.state == tcpDone || s.state == tcpFailed {
		return
	}
	if ok {
		s.state = tcpDone
	} else {
		s.state = tcpFailed
	}
	s.Close()
	if s.OnComplete != nil {
		s.OnComplete(s.org.Now()-s.started, ok)
	}
}

// Close cancels timers and unregisters the sender from its host.
func (s *TCPSender) Close() {
	s.timerEv.Cancel() // the SYN timer or the RTO, whichever is armed
	s.transferTimer.Cancel()
	s.host.Unregister(s.Flow)
	if s.state == tcpSynSent || s.state == tcpEstablished {
		s.state = tcpIdle
	}
}

// TCPReceiver is the passive side: it answers SYNs, acknowledges data
// cumulatively, and buffers out-of-order segments.
type TCPReceiver struct {
	Flow packet.FlowID
	// OnDeliver, when set, observes each in-order payload delivery.
	OnDeliver func(bytes int)

	host      *netsim.Host
	rcvNxt    int64
	delivered int64
	// ooo holds the out-of-order segments, sorted by seq, every one
	// above rcvNxt; nil until the first segment arrives early.
	ooo []oooSegment
}

// oooSegment is one buffered out-of-order segment.
type oooSegment struct {
	seq int64
	n   int32
}

// NewTCPReceiver creates and registers a receiver for flow on host.
func NewTCPReceiver(host *netsim.Host, flow packet.FlowID) *TCPReceiver {
	r := &TCPReceiver{Flow: flow, host: host}
	host.Register(flow, r)
	return r
}

// DeliveredBytes returns cumulative in-order payload bytes.
func (r *TCPReceiver) DeliveredBytes() int64 { return r.delivered }

// Delivered returns the counter behind DeliveredBytes, for a meter that
// reads it without a call.
func (r *TCPReceiver) Delivered() *int64 { return &r.delivered }

// Receive handles SYNs and data segments.
func (r *TCPReceiver) Receive(p *packet.Packet) {
	if p.Proto != packet.ProtoTCP {
		return
	}
	if p.IsSYN() {
		r.reply(p.Src, packet.FlagSYN|packet.FlagACK, 0)
		return
	}
	if p.Payload <= 0 {
		return // pure ACK toward a receiver: ignore
	}
	seq, n := p.TCP.Seq, p.Payload
	switch {
	case seq == r.rcvNxt:
		r.advance(n)
		// Drain the buffered segments that start at or below the new
		// rcvNxt: one starting exactly there is delivered, one starting
		// below it (an overlap) can never start there again.
		k := 0
		for ; k < len(r.ooo) && r.ooo[k].seq <= r.rcvNxt; k++ {
			if r.ooo[k].seq == r.rcvNxt {
				r.advance(r.ooo[k].n)
			}
		}
		r.ooo = slices.Delete(r.ooo, 0, k)
	case seq > r.rcvNxt:
		i, found := slices.BinarySearchFunc(r.ooo, seq, func(s oooSegment, seq int64) int { return cmp.Compare(s.seq, seq) })
		if found {
			r.ooo[i].n = n // a retransmission replaces the buffered length
		} else {
			r.ooo = slices.Insert(r.ooo, i, oooSegment{seq, n})
		}
	}
	r.reply(p.Src, packet.FlagACK, r.rcvNxt)
}

func (r *TCPReceiver) advance(n int32) {
	r.rcvNxt += int64(n)
	r.delivered += int64(n)
	if r.OnDeliver != nil {
		r.OnDeliver(int(n))
	}
}

// reply sends a segment back to the sender, peer.
func (r *TCPReceiver) reply(peer packet.NodeID, flags uint8, ack int64) {
	p := r.host.NewPacket()
	p.Dst = peer
	p.Flow = r.Flow
	p.Kind = packet.KindRegular
	p.Proto = packet.ProtoTCP
	p.Size = packet.SizeACK
	p.TCP = packet.TCPInfo{Flags: flags, Ack: ack}
	r.host.Send(p)
}

func min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
