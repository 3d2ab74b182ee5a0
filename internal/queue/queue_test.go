package queue

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netfence/internal/packet"
)

func TestRingFIFO(t *testing.T) {
	var r Ring
	if r.Pop() != nil || r.Peek() != nil || r.PopTail() != nil {
		t.Fatal("empty ring returned a packet")
	}
	for i := 0; i < 100; i++ {
		r.Push(&packet.Packet{UID: uint64(i)})
	}
	if r.Len() != 100 {
		t.Fatalf("len = %d", r.Len())
	}
	if r.Peek().UID != 0 {
		t.Fatal("peek broken")
	}
	for i := 0; i < 100; i++ {
		if got := r.Pop().UID; got != uint64(i) {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
}

func TestRingPopTail(t *testing.T) {
	var r Ring
	for i := 0; i < 5; i++ {
		r.Push(&packet.Packet{UID: uint64(i)})
	}
	if got := r.PopTail().UID; got != 4 {
		t.Fatalf("PopTail = %d", got)
	}
	if got := r.Pop().UID; got != 0 {
		t.Fatalf("head after PopTail = %d", got)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
}

// TestRingWrapProperty drives random push/pop/poptail sequences against a
// reference slice implementation.
func TestRingWrapProperty(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		var r Ring
		var ref []*packet.Packet
		uid := uint64(0)
		for i := 0; i < int(n)*4; i++ {
			switch rng.IntN(3) {
			case 0:
				p := &packet.Packet{UID: uid}
				uid++
				r.Push(p)
				ref = append(ref, p)
			case 1:
				got := r.Pop()
				if len(ref) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			default:
				got := r.PopTail()
				if len(ref) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got != ref[len(ref)-1] {
						return false
					}
					ref = ref[:len(ref)-1]
				}
			}
			if r.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOStats(t *testing.T) {
	var f FIFO
	f.Enqueue(&packet.Packet{Size: 100}, 5)
	f.Enqueue(&packet.Packet{Size: 200}, 6)
	if f.Bytes() != 300 || f.Len() != 2 {
		t.Fatalf("bytes=%d len=%d", f.Bytes(), f.Len())
	}
	p, _ := f.Dequeue(7)
	if p == nil || p.Size != 100 {
		t.Fatal("Dequeue did not return the head")
	}
	s := f.Stats()
	if s.Enqueued != 2 || s.Dequeued != 1 || s.DequeuedBytes != 100 {
		t.Fatalf("stats %+v", s)
	}
}
