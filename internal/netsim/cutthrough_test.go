package netsim

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"netfence/internal/aqm"
	"netfence/internal/obs"
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// classicFIFO is a plain FIFO under a type of its own: a link it is
// assigned to sees an installed discipline and enqueues every packet,
// which is what every link did before the cut-through.
type classicFIFO struct{ queue.FIFO }

// cutArrival is what the far end of the link saw of one packet.
type cutArrival struct {
	At  sim.Time
	Seq int64
}

// cutSide is one one-link network on its own engine.
type cutSide struct {
	eng    *sim.Engine
	net    *Network
	l      *Link
	lo, hi sim.Origin // keyed below and above the link's own origin
	dst    packet.NodeID
	// hwm is the running maximum of the backlog high-water mark, as
	// harvests at every step fold it into the gauge.
	hwm     uint64
	arrived []cutArrival
	sent    []int64 // transmit-hook order
	dropped []int64
}

func newCutSide(classic bool) *cutSide {
	s := &cutSide{eng: sim.New(1)}
	s.net = New(s.eng)
	s.net.Rec = obs.NewRecorder([]uint64{1}) // flow 1 of {1, 2}
	a, b := s.net.NewNode("a", 1), s.net.NewHost("b", 2)
	s.l, _ = s.net.Connect(a, b, 10_000_000, sim.Millisecond)
	s.net.ComputeRoutes()
	if classic {
		s.l.Q = &classicFIFO{}
	}
	s.dst = b.ID
	s.lo, s.hi = s.eng.NewOrigin(1), s.eng.NewOrigin(^uint64(0))
	sink := agentFunc(func(p *packet.Packet) {
		s.arrived = append(s.arrived, cutArrival{At: s.eng.Now(), Seq: p.TCP.Seq})
	})
	b.Host.OnUnknownFlow = func(*packet.Packet) Agent { return sink }
	s.l.SetOnTransmit(func(p *packet.Packet, _ *Link) { s.sent = append(s.sent, p.TCP.Seq) })
	s.net.OnDrop = func(p *packet.Packet, _ *Link) { s.dropped = append(s.dropped, p.TCP.Seq) }
	return s
}

type agentFunc func(*packet.Packet)

func (f agentFunc) Receive(p *packet.Packet) { f(p) }

// state is everything the two sides must agree on.
func (s *cutSide) state() string {
	s.hwm = max(s.hwm, s.net.LinkStats().QueueHWM)
	packets, backlog := s.l.Backlog()
	return fmt.Sprintf("now %d executed %d pending %d tx %d/%d backlog %d/%d hwm %d\narrived %v\nsent %v dropped %v\ntrace %v",
		s.eng.Now(), s.eng.Executed(), s.eng.Pending(), s.l.TxPackets, s.l.TxBytes, packets, backlog, s.hwm,
		s.arrived, s.sent, s.dropped, s.net.Rec.Events())
}

// Program steps are three bytes: op, b1, b2. Every step first advances
// the clock by (b2&15) quarters of the previous packet's transmit time
// plus b2>>4 nanoseconds — zero to a few transmit times, four quarters
// being the instant the transmit-complete fires.
const (
	cutSend    = 0 // 0–3: size 40+6*b1; op bit 3: unsampled flow; bit 4: the sender's origin sorts after the link's
	cutRate    = 4 // SetRate(cutRates[b1&3])
	cutDelay   = 5 // SetDelay(cutDelays[b1&3])
	cutInstall = 6 // Q = DropTail of 1+b1&7 full-size packets
	cutIdle    = 7 // nothing; the gap is taken 1+b1&15 times
)

var (
	cutRates  = [4]int64{1_000_000, 10_000_000, 12_345_678, 1_000_000_000}
	cutDelays = [4]sim.Time{sim.Microsecond, 100 * sim.Microsecond, sim.Millisecond, 10 * sim.Millisecond}
)

func cutStep(op, b1, b2 byte) []byte { return []byte{op, b1, b2} }

// cutPkt is a send of size bytes (rounded down onto the 6-byte grid),
// quarters of a transmit time after the previous step.
func cutPkt(size, quarters int, flags byte) []byte {
	return cutStep(cutSend|flags, byte((size-40)/6), byte(quarters))
}

const (
	cutUnsampled = 1 << 3
	cutAfterLink = 1 << 4
)

func cutCat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// cutSeeds are the named programs of FuzzLinkCutThrough's corpus.
var cutSeeds = map[string][]byte{
	// The second packet finds the transmitter busy and materialises
	// the queue.
	"pair":    cutCat(cutPkt(1500, 0, 0), cutPkt(1500, 0, 0)),
	"burst20": bytes.Repeat(cutPkt(1000, 0, 0), 20),
	// A lone large packet is the backlog's high-water mark, seen by no
	// queue; small ones queue behind one another later.
	"lone-large": cutCat(cutPkt(1570, 0, 0), cutStep(cutIdle, 15, 8), bytes.Repeat(cutPkt(100, 0, cutUnsampled), 4)),
	// Packets arriving at the very instant the transmit-complete fires:
	// from an origin keyed below the link's they find the transmitter
	// busy, from one keyed above they find it idle.
	"one-tx-gap": cutCat(cutPkt(1000, 0, 0), cutPkt(400, 4, 0), cutPkt(400, 4, cutAfterLink),
		cutPkt(700, 4, cutAfterLink), cutPkt(700, 4, 0), cutPkt(100, 4, 0), cutPkt(100, 3, cutAfterLink), cutPkt(100, 5, 0)),
	"rate-change": cutCat(cutPkt(1500, 0, 0), cutPkt(1500, 0, 0), cutStep(cutRate, 0, 2), cutPkt(600, 1, 0),
		cutPkt(600, 9, 0), cutStep(cutRate, 3, 1), cutPkt(600, 0, 0), cutPkt(600, 0, cutUnsampled)),
	"delay-change": cutCat(cutPkt(800, 0, 0), cutPkt(800, 2, 0), cutStep(cutDelay, 0, 1), cutPkt(800, 0, 0),
		cutStep(cutDelay, 3, 0), cutPkt(800, 6, 0)),
	// The default queue holds packets when a discipline replaces it.
	"install-over-backlog": cutCat(bytes.Repeat(cutPkt(1500, 0, 0), 5), cutStep(cutInstall, 1, 1),
		bytes.Repeat(cutPkt(1500, 0, 0), 5), cutStep(cutIdle, 15, 15), cutPkt(300, 0, 0)),
	// Idle, busy, idle again: the materialised queue stays and the
	// packets between bursts still cut through.
	"bursts": cutCat(bytes.Repeat(cutPkt(900, 0, 0), 3), cutStep(cutIdle, 15, 15), cutPkt(1200, 0, cutUnsampled),
		cutStep(cutIdle, 15, 15), bytes.Repeat(cutPkt(500, 1, 0), 10), bytes.Repeat(cutPkt(500, 7, 0), 3)),
}

// runCutProgram drives prog into a link as Connect builds it and into
// one that takes the classic enqueue-then-dequeue path for every packet,
// and holds the two to the same observable behaviour after every step
// and once both engines have drained.
func runCutProgram(t *testing.T, prog []byte) {
	sides := [2]*cutSide{newCutSide(false), newCutSide(true)}
	at, prevSize, seq := sides[0].eng.Now(), 0, int64(0)
	agree := func(when string) {
		t.Helper()
		if a, b := sides[0].state(), sides[1].state(); a != b {
			t.Fatalf("%s: the link as built and the classic link differ\nas built:\n%s\nclassic:\n%s", when, a, b)
		}
	}
	for i := 0; i+3 <= len(prog); i += 3 {
		op, b1, b2 := prog[i], prog[i+1], prog[i+2]
		gap := sim.TxTime(prevSize, sides[0].l.Rate)*sim.Time(b2&15)/4 + sim.Time(b2>>4)
		if op&7 == cutIdle {
			gap *= 1 + sim.Time(b1&15)
		}
		at += gap
		seq++
		for _, s := range sides {
			if op&7 < cutRate {
				p := &packet.Packet{Dst: s.dst, TCP: packet.TCPInfo{Seq: seq}, Flow: packet.FlowID(1 + op>>3&1), Size: 40 + 6*int32(b1)}
				org := &s.lo
				if op&cutAfterLink != 0 {
					org = &s.hi
				}
				org.At(at, func() { s.l.Send(p) })
			}
			s.eng.RunUntil(at)
			switch op & 7 {
			case cutRate:
				s.l.SetRate(cutRates[b1&3])
			case cutDelay:
				s.l.SetDelay(cutDelays[b1&3])
			case cutInstall:
				s.l.Q = aqm.NewDropTail(1500 * (1 + int(b1&7)))
			}
		}
		if op&7 < cutRate {
			prevSize = 40 + 6*int(b1)
		}
		agree(fmt.Sprintf("step %d (% x)", i/3, prog[i:i+3]))
	}
	for _, s := range sides {
		s.eng.Run()
	}
	agree("drained")
	// Nothing was dropped or stranded unless a DropTail came in: every
	// Send, by either path, is a transmission and an arrival.
	a := sides[0]
	if _, installed := a.l.Q.(*aqm.DropTail); !installed {
		if st := a.net.LinkStats(); st.CutThrough+st.Queued != a.l.TxPackets || int(a.l.TxPackets) != len(a.arrived) {
			t.Fatalf("%+v sent, %d transmitted, %d arrived", st, a.l.TxPackets, len(a.arrived))
		}
	}
}

// FuzzLinkCutThrough is the differential oracle of the idle-link
// cut-through: whatever the program — sizes, gaps down to the nanosecond
// around the transmit-complete, rate and delay changes, sampled and
// unsampled flows, a discipline installed over a backlog — arrival
// instants and order, the transmit counters, the transmit-hook calls, the
// flight-recorder records, the engine's executed and pending counts and
// the backlog high-water mark are those of a link that queues every
// packet.
func FuzzLinkCutThrough(f *testing.F) {
	for _, prog := range cutSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*256 {
			prog = prog[:3*256]
		}
		runCutProgram(t, prog)
	})
}

// TestLinkLayoutBudget pins the per-link state — the origin, the queue,
// the counters and one pointer to the cold block — inside the 128-byte
// malloc size class, so a Connect pair is one 256-byte object: a large
// topology's live heap is mostly links. What an arrival
// (To, net) and the start of a transmission (sending, Rate, Delay) read
// stays in the first cache line of a struct that is cold by then.
func TestLinkLayoutBudget(t *testing.T) {
	var l Link
	if n := unsafe.Sizeof(l); n > 128 {
		t.Fatalf("sizeof(Link) = %d, budget 128", n)
	}
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"To", unsafe.Offsetof(l.To) + unsafe.Sizeof(l.To)},
		{"net", unsafe.Offsetof(l.net) + unsafe.Sizeof(l.net)},
		{"sending", unsafe.Offsetof(l.sending) + unsafe.Sizeof(l.sending)},
		{"Rate", unsafe.Offsetof(l.Rate) + unsafe.Sizeof(l.Rate)},
		{"Delay", unsafe.Offsetof(l.Delay) + unsafe.Sizeof(l.Delay)},
	} {
		if f.end > 64 {
			t.Errorf("Link.%s ends at offset %d, outside the first cache line", f.name, f.end)
		}
	}
}

// TestDefaultQueueLayoutBudget pins the materialised default queue — the
// FIFO and its ring's first eight slots — at one object of the 160-byte
// size class.
func TestDefaultQueueLayoutBudget(t *testing.T) {
	if n := unsafe.Sizeof(defaultQueue{}); n > 160 {
		t.Fatalf("sizeof(defaultQueue) = %d, budget 160", n)
	}
}

// TestContendedLinkMaterialisesOnce: the first Send that finds a link's
// transmitter busy allocates the default queue, in one allocation, and
// no later Send on that link — contended or not — allocates again.
func TestContendedLinkMaterialisesOnce(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	hub := n.NewNode("hub", 1)
	const fresh = 64
	var links [fresh + 1]*Link
	var pkts [fresh + 1]*packet.Packet
	for i := range links {
		h := n.NewHost("h", 2)
		h.Host.OnUnknownFlow = func(*packet.Packet) Agent { return agentFunc(func(*packet.Packet) {}) }
		links[i], _ = n.Connect(hub, h, 1_000_000, sim.Millisecond)
		pkts[i] = &packet.Packet{Dst: h.ID, Flow: 1, Size: 1500}
	}
	n.ComputeRoutes()
	for i, l := range links {
		l.Send(&packet.Packet{Dst: pkts[i].Dst, Flow: 1, Size: 1500}) // the transmitter is busy from here on
	}
	if st := n.LinkStats(); st.Queueless != st.Links || st.CutThrough != fresh+1 {
		t.Fatalf("before contention: %+v, want every link without a queue", st)
	}
	next := 0
	first := testing.AllocsPerRun(fresh, func() { // fresh+1 calls, each on a link of its own
		links[next].Send(pkts[next])
		next++
	})
	if first != 1 {
		t.Errorf("the first contended Send on a link allocates %.2f times, want exactly 1", first)
	}
	if st := n.LinkStats(); st.Links-st.Queueless != fresh+1 {
		t.Fatalf("after contention: %+v, want %d queues", st, fresh+1)
	}
	eng.Run()

	l, dst := links[0], pkts[0].Dst
	send := func() {
		p := n.Pool.Get()
		p.Dst, p.Flow, p.Size = dst, 1, 1500
		l.Send(p)
	}
	later := testing.AllocsPerRun(100, func() {
		send() // idle: cuts through
		send() // busy: queues
		send()
		eng.Run()
	})
	if later != 0 {
		t.Errorf("Sends on a link whose queue exists allocate %.2f times per round, want 0", later)
	}
	if _, ok := l.Q.(*defaultQueue); !ok || l.Q.Stats().Enqueued != l.Q.Stats().Dequeued {
		t.Errorf("queue %T %+v, want a drained default queue", l.Q, l.Q.Stats())
	}
}
