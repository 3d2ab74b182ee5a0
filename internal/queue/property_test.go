package queue_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netfence/internal/aqm"
	"netfence/internal/fq"
	"netfence/internal/packet"
	"netfence/internal/queue"
	"netfence/internal/sim"
)

// fates is a recording Dropper: it notes every packet handed to it and
// then clears the packet's size, as a pool's reset would, so a
// discipline that reads a packet it has given away miscounts its bytes.
type fates struct {
	dropped map[*packet.Packet]int
	bytes   uint64
	err     error
}

func (f *fates) Drop(p *packet.Packet, now sim.Time, reason string) {
	if reason == "" && f.err == nil {
		f.err = fmt.Errorf("a packet of %d B was dropped with no reason", p.Size)
	}
	f.dropped[p]++
	f.bytes += uint64(p.Size)
	p.Size = 0
}

// TestDisciplineConservationProperty offers random packets from 24
// senders in 12 ASes to each discipline that discards, between random
// dequeues, on a buffer small enough to refuse and evict. Every offered
// packet must be, exactly once, dequeued, handed to the Dropper, or still
// queued: a refused packet is dropped in its own Enqueue call, what is
// still queued is what Len and Bytes report, Stats agree with the record,
// and the backlog never passes the limit. Draining then leaves nothing.
// Over all runs each discipline must have refused, and the fair queues
// evicted, or the property held of nothing.
func TestDisciplineConservationProperty(t *testing.T) {
	const limit = 12_500
	disciplines := []struct {
		name   string
		evicts bool
		make   func(rng *rand.Rand) queue.Queue
	}{
		{"DropTail", false, func(*rand.Rand) queue.Queue { return aqm.NewDropTail(limit) }},
		{"RED", false, func(rng *rand.Rand) queue.Queue { return aqm.NewRED(aqm.DefaultRED(limit*8*5), rng) }},
		{"DRR", true, func(*rand.Rand) queue.Queue { return fq.NewDRR(fq.BySender, packet.SizeData, limit) }},
		{"HDRR", true, func(*rand.Rand) queue.Queue {
			return fq.NewHDRR(fq.BySourceAS, fq.BySender, packet.SizeData, limit)
		}},
	}
	for _, d := range disciplines {
		t.Run(d.name, func(t *testing.T) {
			var refusedAll, evictedAll uint64
			prop := func(seed uint64, n uint8) error {
				rng := rand.New(rand.NewPCG(seed, 13))
				q := d.make(rng)
				rec := &fates{dropped: map[*packet.Packet]int{}}
				q.SetDropper(rec)
				size := map[*packet.Packet]int{}
				dequeued := map[*packet.Packet]int{}
				var offered []*packet.Packet
				var refused, out, outBytes uint64
				dequeue := func(now sim.Time) bool {
					p, _ := q.Dequeue(now)
					if p != nil {
						dequeued[p]++
						out++
						outBytes += uint64(p.Size)
					}
					return p != nil
				}
				now := sim.Time(0)
				for i := 0; i < int(n)*8; i++ {
					now += sim.Time(rng.IntN(int(sim.Millisecond)))
					if rng.IntN(3) == 0 {
						dequeue(now)
					} else {
						src := rng.IntN(24)
						p := &packet.Packet{Src: packet.NodeID(src), SrcAS: packet.ASID(src % 12), Size: int32(40 + rng.IntN(1461))}
						offered = append(offered, p)
						size[p] = int(p.Size)
						drops := len(rec.dropped)
						if !q.Enqueue(p, now) {
							refused++
							if rec.dropped[p] != 1 {
								return fmt.Errorf("op %d: Enqueue refused a packet it did not drop", i)
							}
						} else if rec.dropped[p] != 0 {
							return fmt.Errorf("op %d: Enqueue took a packet it dropped", i)
						} else if len(rec.dropped) < drops {
							return fmt.Errorf("op %d: the drop record shrank", i)
						}
					}
					if q.Bytes() > limit {
						return fmt.Errorf("op %d: backlog %d B past the %d B limit", i, q.Bytes(), limit)
					}
				}
				if rec.err != nil {
					return rec.err
				}
				refusedAll += refused
				evictedAll += uint64(len(rec.dropped)) - refused
				queued, queuedBytes := 0, 0
				for _, p := range offered {
					switch fate := dequeued[p] + rec.dropped[p]; fate {
					case 0:
						queued++
						queuedBytes += size[p]
					case 1:
					default:
						return fmt.Errorf("a packet met %d fates", fate)
					}
				}
				if q.Len() != queued || q.Bytes() != queuedBytes {
					return fmt.Errorf("queue reports %d packets / %d B, the record %d / %d", q.Len(), q.Bytes(), queued, queuedBytes)
				}
				want := queue.Stats{
					Enqueued: uint64(len(offered)) - refused, Dequeued: out, DequeuedBytes: outBytes,
					Dropped: uint64(len(rec.dropped)), DroppedBytes: rec.bytes,
				}
				if got := q.Stats(); got != want {
					return fmt.Errorf("Stats %+v, the record %+v", got, want)
				}
				for dequeue(now) {
				}
				for _, p := range offered {
					if dequeued[p]+rec.dropped[p] != 1 {
						return fmt.Errorf("after draining, a packet met %d fates", dequeued[p]+rec.dropped[p])
					}
				}
				if q.Len() != 0 || q.Bytes() != 0 {
					return fmt.Errorf("drained queue reports %d packets / %d B", q.Len(), q.Bytes())
				}
				return nil
			}
			check := func(seed uint64, n uint8) bool {
				if err := prop(seed, n); err != nil {
					t.Logf("seed %d, n %d: %v", seed, n, err)
					return false
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
			if refusedAll == 0 || d.evicts && evictedAll == 0 {
				t.Errorf("%d refused and %d evicted over all runs", refusedAll, evictedAll)
			}
		})
	}
}
