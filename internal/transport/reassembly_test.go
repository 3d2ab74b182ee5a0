package transport

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
)

// mapReceiver is the reference for TCPReceiver's reassembly: the
// map-keyed buffer the receiver used before its sorted slice. A segment
// above rcvNxt is stored under its seq (a retransmission overwrites the
// length); an in-order segment is delivered, then so is every buffered
// segment that starts exactly at the advancing rcvNxt, looked up one at a
// time. Entries overtaken by an overlap stay in the map for good.
type mapReceiver struct {
	rcvNxt, delivered int64
	ooo               map[int64]int32
	delivers          []int
}

// receive handles one packet and returns the ACK number of its reply
// (-1: no reply).
func (r *mapReceiver) receive(p *packet.Packet) int64 {
	if p.IsSYN() {
		return 0
	}
	if p.Payload <= 0 {
		return -1
	}
	seq, n := p.TCP.Seq, p.Payload
	switch {
	case seq == r.rcvNxt:
		r.advance(n)
		for {
			n2, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.advance(n2)
		}
	case seq > r.rcvNxt:
		r.ooo[seq] = n
	}
	return r.rcvNxt
}

func (r *mapReceiver) advance(n int32) {
	r.rcvNxt += int64(n)
	r.delivered += int64(n)
	r.delivers = append(r.delivers, int(n))
}

// ackTap is a shim that records the ACK number of every reply the
// receiver sends.
type ackTap struct{ acks []int64 }

func (a *ackTap) Egress(p *packet.Packet)     { a.acks = append(a.acks, p.TCP.Ack) }
func (a *ackTap) Ingress(*packet.Packet) bool { return true }

// Program steps are three bytes: op, b1, b2. Op bits 0-1 pick the kind
// (3: SYN, 2: zero-payload, else data); bit 2 places the segment
// relative to the reference's rcvNxt — int8(b1) tens of bytes away, so
// exact hits, overlaps and near misses are common — instead of at the
// absolute b1 hundreds; bits 4-7 add tens of bytes. The payload is
// 10·(1+b2) bytes. Ten-byte granularity keeps segments aligned often
// enough to chain.
const (
	reasmSYN      = 3
	reasmEmpty    = 2
	reasmRelative = 1 << 2
)

func reasmSeg(seq, n int) []byte {
	return []byte{byte(seq%100/10) << 4, byte(seq / 100), byte(n/10 - 1)}
}
func reasmNext(off, n int) []byte { return []byte{reasmRelative, byte(int8(off / 10)), byte(n/10 - 1)} }

// reasmSeeds are the named programs of FuzzTCPReassembly's corpus.
var reasmSeeds = map[string][]byte{
	"in-order": bytes.Join([][]byte{{reasmSYN, 0, 0}, reasmSeg(0, 100), reasmSeg(100, 100), reasmSeg(200, 50)}, nil),
	// Five segments arrive in reverse, the first fills the hole and the
	// whole chain drains at once.
	"reverse": bytes.Join([][]byte{reasmSeg(500, 100), reasmSeg(400, 100), reasmSeg(300, 100), reasmSeg(200, 100),
		reasmSeg(100, 100), reasmSeg(0, 100)}, nil),
	// A buffered segment is retransmitted with another length: the
	// second length is the one delivered.
	"overwrite": bytes.Join([][]byte{reasmSeg(300, 100), reasmSeg(300, 50), reasmSeg(0, 300), reasmSeg(350, 10)}, nil),
	// The in-order segment overlaps a buffered one, which can then never
	// be delivered, and the next in-order segment overtakes the other.
	"overlap": bytes.Join([][]byte{reasmSeg(100, 100), reasmSeg(200, 100), reasmSeg(0, 150), reasmNext(0, 60),
		reasmNext(0, 100)}, nil),
	"duplicates": bytes.Join([][]byte{reasmSeg(0, 100), reasmSeg(0, 100), reasmSeg(200, 100), reasmSeg(200, 100),
		{reasmEmpty, 0, 0}, reasmSeg(100, 100), reasmSeg(100, 100), reasmNext(-100, 100)}, nil),
	"relative": bytes.Join([][]byte{reasmNext(30, 20), reasmNext(10, 20), reasmNext(0, 10), reasmNext(50, 40),
		reasmNext(-20, 10), reasmNext(0, 20), reasmNext(0, 10)}, nil),
}

// runReasmProgram drives prog into a TCPReceiver and the map reference
// and holds them to the same ACK numbers, DeliveredBytes and OnDeliver
// calls after every segment, and the receiver's buffer to its invariant:
// sorted, unique and above rcvNxt.
func runReasmProgram(t *testing.T, prog []byte) {
	eng := sim.New(1)
	n := netsim.New(eng)
	a, b := n.NewHost("a", 1), n.NewHost("b", 1)
	n.Connect(a, b, 1_000_000_000, sim.Microsecond)
	n.ComputeRoutes()
	tap := &ackTap{}
	b.Host.Shim = tap
	r := NewTCPReceiver(b.Host, 1)
	var delivers []int
	r.OnDeliver = func(n int) { delivers = append(delivers, n) }
	ref := &mapReceiver{ooo: map[int64]int32{}}
	var refAcks []int64

	for i := 0; i+3 <= len(prog); i += 3 {
		op, b1, b2 := prog[i], prog[i+1], prog[i+2]
		p := &packet.Packet{Src: a.ID, Dst: b.ID, Flow: 1, Proto: packet.ProtoTCP, Payload: 10 * (1 + int32(b2))}
		seq := int64(b1)*100 + int64(op>>4)*10
		if op&reasmRelative != 0 {
			seq = ref.rcvNxt + int64(int8(b1))*10 + int64(op>>4)*10
		}
		p.TCP = packet.TCPInfo{Flags: packet.FlagACK, Seq: max(seq, 0)}
		switch op & 3 {
		case reasmSYN:
			p.TCP.Flags, p.Payload = packet.FlagSYN, 0
		case reasmEmpty:
			p.Payload = 0
		}
		if ack := ref.receive(p); ack >= 0 {
			refAcks = append(refAcks, ack)
		}
		r.Receive(p)
		eng.Run() // deliver the reply, so its packet returns to the pool

		where := fmt.Sprintf("step %d (% x)", i/3, prog[i:i+3])
		if !slices.Equal(tap.acks, refAcks) {
			t.Fatalf("%s: ACKs %v, reference %v", where, tap.acks, refAcks)
		}
		if r.DeliveredBytes() != ref.delivered {
			t.Fatalf("%s: DeliveredBytes %d, reference %d", where, r.DeliveredBytes(), ref.delivered)
		}
		if !slices.Equal(delivers, ref.delivers) {
			t.Fatalf("%s: OnDeliver calls %v, reference %v", where, delivers, ref.delivers)
		}
		for k, s := range r.ooo {
			if s.seq <= r.rcvNxt || k > 0 && s.seq <= r.ooo[k-1].seq {
				t.Fatalf("%s: buffer %v at rcvNxt %d is not sorted, unique and above rcvNxt", where, r.ooo, r.rcvNxt)
			}
		}
	}
}

// FuzzTCPReassembly is the differential oracle of TCPReceiver's sorted
// reassembly buffer: whatever the order of segments — duplicates,
// overlaps, retransmissions with other lengths, SYNs and empty segments
// in between — the replies' ACK numbers, the delivered byte count and the
// OnDeliver calls are those of the map-keyed buffer it replaced.
func FuzzTCPReassembly(f *testing.F) {
	for _, prog := range reasmSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*256 {
			prog = prog[:3*256]
		}
		runReasmProgram(t, prog)
	})
}
