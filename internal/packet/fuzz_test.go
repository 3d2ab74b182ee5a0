package packet

import (
	"reflect"
	"slices"
	"testing"
)

// Pool program opcodes: each step is an opcode byte, whose bit 3 picks
// the pool (0 plain, 1 trailer-making), and an argument byte.
const (
	fpGet          byte = iota // draw a packet and dirty it
	fpPut                      // recycle live packet arg%live
	fpLend                     // lend arg%8 idle packets to the other pool, which adopts them
	fpNeedPassport             // live packet arg%live grows (or reuses) its trailer block
	fpNeedExt                  // live packet arg%live grows (or reuses) its Ext block
	fpDoublePut                // recycle idle packet arg%idle again: must panic
	fpForeign                  // recycle a hand-made packet: ignored
	fpOps

	fpTrailers byte = 8
)

// poolBooks is the reference model of one Pool: its counters and its
// free list, a stack of the very packets the pool must hand back.
type poolBooks struct {
	gets, news, puts uint64
	free             []*Packet
}

// runPoolProgram drives a plain and a trailer-making Pool through prog
// and checks every step against the books: no packet is live twice or
// idle while live, every Get is the model's top of stack or a packet
// never seen, and looks fresh apart from the retained zeroed blocks —
// the same ones it was recycled with — and the counters and Len agree.
func runPoolProgram(t *testing.T, prog []byte) {
	var pools [2]Pool
	pools[1].MakeTrailers()
	var books [2]poolBooks
	var live []*Packet
	seen := map[*Packet]bool{}
	blocks := map[*PassportStamp]*Packet{} // block → the packet it belongs to
	exts := map[*Ext]*Packet{}
	type retained struct {
		st  *PassportStamp
		ext *Ext
	}
	kept := map[*Packet]retained{} // the blocks a recycled packet must come back with
	pick := func(arg byte, n int) int { return int(arg) % n }
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step], prog[step+1]
		i := 0
		if op&fpTrailers != 0 {
			i = 1
		}
		pl, bk := &pools[i], &books[i]
		switch (op &^ fpTrailers) % fpOps {
		case fpGet:
			p := pl.Get()
			bk.gets++
			if n := len(bk.free); n > 0 {
				if want := bk.free[n-1]; p != want {
					t.Fatalf("step %d: Get returned %p, the books' top is %p", step, p, want)
				}
				bk.free = bk.free[:n-1]
				if k := kept[p]; p.Passport != k.st || p.Ext != k.ext {
					t.Fatalf("step %d: a recycled packet came back with other blocks", step)
				}
			} else {
				bk.news++
				if seen[p] {
					t.Fatalf("step %d: a fresh packet %p was handed out before", step, p)
				}
				seen[p] = true
				if p.Ext != nil || (p.Passport != nil) != (i == 1) {
					t.Fatalf("step %d: fresh packet from pool %d has blocks %v, %v", step, i, p.Passport, p.Ext)
				}
				if st := p.Passport; st != nil {
					if blocks[st] != nil || cap(st.Entries) != passportInline {
						t.Fatalf("step %d: fresh Passport packet's block is shared or not inline (cap %d)", step, cap(st.Entries))
					}
					blocks[st] = p
				}
			}
			if !p.pooled || p.inPool {
				t.Fatalf("step %d: Get returned a packet with pooled %v, inPool %v", step, p.pooled, p.inPool)
			}
			if !likeFresh(t, "Packet", reflect.ValueOf(p).Elem()) {
				t.Fatalf("step %d: Get returned a packet unlike a fresh one", step)
			}
			for _, q := range live {
				if q == p {
					t.Fatalf("step %d: packet %p is live twice", step, p)
				}
			}
			p.Flow, p.Size, p.FB.Link = FlowID(step+1), int32(arg)+1, LinkID(arg)
			if p.Passport != nil {
				for j := 0; j < int(arg%9); j++ {
					p.Passport.Entries = append(p.Passport.Entries, PassportMAC{AS: ASID(j + 1)})
				}
				p.Passport.Next, p.Passport.Present = int32(arg%3), true
			}
			live = append(live, p)
		case fpPut:
			if len(live) == 0 {
				continue
			}
			j := pick(arg, len(live))
			p := live[j]
			live = append(live[:j], live[j+1:]...)
			kept[p] = retained{p.Passport, p.Ext}
			pl.Put(p)
			bk.puts++
			bk.free = append(bk.free, p)
		case fpLend:
			o := &books[1-i]
			n := int(arg % 8)
			k := len(bk.free) - min(n, len(bk.free))
			want := append([]*Packet(nil), bk.free[k:]...)
			lent := pl.Lend(nil, n)
			if !slices.Equal(lent, want) {
				t.Fatalf("step %d: Lend(%d) gave %v, the books say %v", step, n, lent, want)
			}
			bk.free = bk.free[:k]
			pools[1-i].Adopt(lent)
			o.free = append(o.free, lent...)
		case fpNeedPassport:
			if len(live) == 0 {
				continue
			}
			p := live[pick(arg, len(live))]
			had := p.Passport
			st := p.NeedPassport()
			if had != nil && st != had {
				t.Fatalf("step %d: NeedPassport replaced the packet's block", step)
			}
			if had == nil {
				if blocks[st] != nil {
					t.Fatalf("step %d: NeedPassport made a block another packet has", step)
				}
				blocks[st] = p
			}
			st.Entries = append(st.Entries, PassportMAC{AS: ASID(arg)})
			st.Present = true
		case fpNeedExt:
			if len(live) == 0 {
				continue
			}
			p := live[pick(arg, len(live))]
			had := p.Ext
			x := p.NeedExt()
			if had != nil && x != had {
				t.Fatalf("step %d: NeedExt replaced the packet's block", step)
			}
			if had == nil {
				if exts[x] != nil {
					t.Fatalf("step %d: NeedExt made a block another packet has", step)
				}
				exts[x] = p
			}
			x.Cap = Capability{Present: true, Dst: NodeID(arg)}
			x.MFB = MultiHeader{Present: true, Items: []MultiFB{{Link: LinkID(arg)}}}
		case fpDoublePut:
			idle := append(append([]*Packet(nil), books[0].free...), books[1].free...)
			if len(idle) == 0 {
				continue
			}
			p := idle[pick(arg, len(idle))]
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("step %d: a double Put did not panic", step)
					}
				}()
				pl.Put(p)
			}()
		case fpForeign:
			p := &Packet{Flow: FlowID(arg) + 1}
			pl.Put(p)
			if p.Flow != FlowID(arg)+1 {
				t.Fatalf("step %d: Put reset a hand-made packet", step)
			}
		}
		for j := range pools {
			pl, bk := &pools[j], &books[j]
			if pl.Gets != bk.gets || pl.News != bk.news || pl.Puts != bk.puts || pl.Len() != len(bk.free) {
				t.Fatalf("step %d: pool %d books gets %d news %d puts %d len %d, want %d %d %d %d", step, j,
					pl.Gets, pl.News, pl.Puts, pl.Len(), bk.gets, bk.news, bk.puts, len(bk.free))
			}
		}
	}
}

// FuzzPacketPool: Get, Put, Lend/Adopt, NeedPassport, NeedExt and
// double and foreign Puts over a plain and a trailer-making Pool, in
// arbitrary order, against the reference books (runPoolProgram).
func FuzzPacketPool(f *testing.F) {
	plain, trail := byte(0), fpTrailers
	steps := func(s ...byte) []byte { return s }
	// The rows of the pool table tests.
	f.Add(steps(plain|fpGet, 3, plain|fpPut, 0, plain|fpGet, 0))                          // TestPoolHygieneProperty
	f.Add(steps(plain|fpGet, 0, plain|fpPut, 0, plain|fpDoublePut, 0))                    // TestPoolDoubleReleasePanics
	f.Add(steps(plain|fpForeign, 41))                                                     // TestPoolIgnoresForeignPackets
	f.Add(steps(plain|fpGet, 8, plain|fpNeedPassport, 0, plain|fpPut, 0, plain|fpGet, 2)) // TestPoolRetainsPassportCapacity
	f.Add(steps(trail|fpGet, 8, trail|fpNeedPassport, 0, trail|fpPut, 0, trail|fpGet, 2)) // its trailer-making half
	f.Add(steps(plain|fpGet, 0, plain|fpNeedExt, 0, plain|fpPut, 0, plain|fpGet, 0))      // TestPoolRetainsExt
	f.Add(steps(trail|fpGet, 1, trail|fpGet, 1, trail|fpGet, 1, plain|fpNeedExt, 0,       // TestLendAdopt
		plain|fpPut, 0, plain|fpPut, 0, plain|fpPut, 0, plain|fpLend, 2, plain|fpLend, 5,
		trail|fpGet, 0, trail|fpPut, 0, trail|fpDoublePut, 0))
	// Across two slab boundaries of each pool, with recycles between.
	var cross []byte
	for n := 0; n < 150; n++ {
		cross = append(cross, plain|fpGet, byte(n), trail|fpGet, byte(n))
		if n%50 == 49 {
			cross = append(cross, plain|fpPut, byte(n), trail|fpPut, byte(n), plain|fpLend, 3, trail|fpGet, 0)
		}
	}
	f.Add(cross)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		runPoolProgram(t, prog)
	})
}
