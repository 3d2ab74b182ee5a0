package netsim

import (
	"fmt"
	"testing"

	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// gateQueue is a rate-capped discipline in miniature: a FIFO whose head
// is eligible only from the instant gate on. Until then Dequeue returns
// the gate as its retry hint, as nfQueue's request channel and the
// TVA+/StopIt queues return the instant their token bucket refills.
type gateQueue struct {
	queue.FIFO
	gate sim.Time
}

func (q *gateQueue) Dequeue(now sim.Time) (*packet.Packet, sim.Time) {
	if q.Len() > 0 && now < q.gate {
		return nil, q.gate
	}
	return q.FIFO.Dequeue(now)
}

// TestLinkRetryPath pins the link's not-yet-eligible retry, the one path
// FuzzLinkCutThrough never reaches (its programs install only DropTail):
// a retry armed at the queue's hint, superseded by an earlier hint, kept
// over a later one, re-armed when it fires early, and cancelled when a
// transmission starts first. Each step advances the clock to at, moves
// the gate (when set), sends, and then pins the arrival instants,
// TxPackets and the engine's executed and pending counts.
func TestLinkRetryPath(t *testing.T) {
	const ms = sim.Millisecond
	eng := sim.New(1)
	n := New(eng)
	a, b := n.NewNode("a", 1), n.NewHost("b", 2)
	l, _ := n.Connect(a, b, 10_000_000, ms) // a 1,250 B packet serializes in 1 ms
	n.ComputeRoutes()
	q := &gateQueue{}
	l.SetQueue(q)
	var arrived []sim.Time
	sink := agentFunc(func(*packet.Packet) { arrived = append(arrived, eng.Now()) })
	b.Host.OnUnknownFlow = func(*packet.Packet) Agent { return sink }

	steps := []struct {
		name     string
		at, gate sim.Time // gate 0: unchanged
		sends    int
		arrived  []sim.Time
		tx       uint64
		executed uint64
		pending  int
	}{
		{name: "backlogged, not eligible: retry at the hint",
			at: 0, gate: 5 * ms, sends: 1, pending: 1},
		{name: "an earlier hint supersedes the pending retry",
			at: 1 * ms, gate: 3 * ms, sends: 1, pending: 1},
		{name: "a later hint keeps the pending retry",
			at: 2 * ms, gate: 4 * ms, sends: 1, pending: 1},
		{name: "the retry fires early and re-arms at the new hint",
			at: 3*ms + ms/2, executed: 1, pending: 1},
		{name: "the re-armed retry starts a transmission; the gate closes again",
			at: 4*ms + ms/2, gate: 100 * ms, executed: 2, pending: 1},
		{name: "transmit-complete: propagation plus a retry for the closed gate",
			at: 5*ms + ms/2, tx: 1, executed: 3, pending: 2},
		{name: "a transmission cancels the pending retry",
			at: 6*ms + ms/2, gate: 6*ms + ms/2, sends: 1, arrived: []sim.Time{6 * ms}, tx: 1, executed: 4, pending: 1},
		{name: "the backlog drains back to back",
			at: 20 * ms, arrived: []sim.Time{6 * ms, 8*ms + ms/2, 9*ms + ms/2, 10*ms + ms/2}, tx: 4, executed: 10},
	}
	for i, st := range steps {
		eng.RunUntil(st.at)
		if st.gate != 0 {
			q.gate = st.gate
		}
		for range st.sends {
			l.Send(&packet.Packet{Dst: b.ID, Flow: 1, Size: 1250})
		}
		got := fmt.Sprintf("arrived %v tx %d executed %d pending %d", arrived, l.TxPackets, eng.Executed(), eng.Pending())
		want := fmt.Sprintf("arrived %v tx %d executed %d pending %d", st.arrived, st.tx, st.executed, st.pending)
		if got != want {
			t.Fatalf("step %d (%s):\n got %s\nwant %s", i, st.name, got, want)
		}
	}
}
