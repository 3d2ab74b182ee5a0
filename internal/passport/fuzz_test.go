package passport

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"

	"netfence/internal/packet"
)

// refPacket is the oracle of FuzzPassportTrailer: a packet that keeps
// its trailer the way packet.Packet did before the trailer moved behind
// a pointer — by value, entries in their own array, nothing shared with
// a pool — and runs the package's algorithms restated over that
// representation. hdr carries the header fields the MAC covers and
// never has a block of its own.
type refPacket struct {
	hdr     packet.Packet
	entries []packet.PassportMAC
	next    int32
	present bool
	pvLink  packet.LinkID // a pipeline verdict riding along
}

func (q *refPacket) stamp(r *Registry, path []packet.ASID) {
	q.entries = make([]packet.PassportMAC, 0, len(path))
	var buf [20]byte
	for _, as := range path {
		e := packet.PassportMAC{AS: as}
		if k := r.Key(q.hdr.SrcAS, as); k != nil {
			e.MAC = k.Sum32(macInput(&buf, &q.hdr, as))
		}
		q.entries = append(q.entries, e)
	}
	q.next, q.present = 0, true
}

func (q *refPacket) check(r *Registry, as packet.ASID) (bool, int) {
	if !q.present {
		return false, -1
	}
	for i := 0; i < int(q.next) && i < len(q.entries); i++ {
		if q.entries[i].AS == as {
			return true, -1
		}
	}
	for i := int(q.next); i < len(q.entries); i++ {
		if q.entries[i].AS != as {
			continue
		}
		k := r.Key(q.hdr.SrcAS, as)
		if k == nil {
			return false, -1
		}
		var buf [20]byte
		return k.Sum32(macInput(&buf, &q.hdr, as)) == q.entries[i].MAC, i
	}
	return false, -1
}

func (q *refPacket) apply(consume int) {
	if consume < 0 {
		return
	}
	for j := int(q.next); j < consume; j++ {
		q.entries[j].AS = -1
	}
	q.next = int32(consume + 1)
}

// A FuzzPassportTrailer program's first byte picks the pool its packets
// come from: odd (fzTrailers) makes each packet with its trailer block,
// as a Passport run's pool does; even (fzPlain) leaves the block to
// NeedPassport. Steps follow: the low nibble of a step's first byte (mod
// fzOps) names the step, the high nibble (mod fzSlots) the packet;
// operands follow, and a program that runs out reads zeros.
const (
	fzPlain    = 0
	fzTrailers = 1
)

const (
	fzStamp    = iota // n, then n ASes: the source border stamps that path
	fzVerify          // AS: Registry.Verify there
	fzCheck           // AS, apply?: the pipeline's split form
	fzForge           // i: flip a bit of entry i's MAC
	fzSwap            // i, j: reorder two entries
	fzTruncate        // k: cut the trailer to k entries
	fzRecycle         // src, dst, srcAS, size: back through the pool, a new packet
	fzSpoof           // what, v: rewrite a header field the MAC covers
	fzVerdict         // link: a pipeline verdict is left on the packet
	fzOps

	fzSlots = 3
	fzASes  = 10 // ASes 1..8 hold keys, 9 and 10 are unknown to the registry
)

func fzRegistry() *Registry {
	return NewRegistry(rand.New(rand.NewPCG(7, 7)), []packet.ASID{1, 2, 3, 4, 5, 6, 7, 8})
}

func fzStep(op, slot byte, operands ...byte) []byte {
	return append([]byte{op | slot<<4}, operands...)
}

func fzPath(slot byte, ases ...byte) []byte {
	b := fzStep(fzStamp, slot, byte(len(ases)))
	for _, as := range ases {
		b = append(b, as-1)
	}
	return b
}

func fzHops(op, slot byte, ases ...byte) []byte {
	var b []byte
	for _, as := range ases {
		if op == fzCheck {
			b = append(b, fzStep(fzCheck, slot, as-1, 1)...)
		} else {
			b = append(b, fzStep(fzVerify, slot, as-1)...)
		}
	}
	return b
}

// runTrailerProgram drives prog through pooled packets and their
// oracles in lock-step and fails on the first difference.
func runTrailerProgram(t *testing.T, prog []byte) {
	r := fzRegistry()
	rd := bytes.NewReader(prog)
	next := func() byte {
		b, _ := rd.ReadByte()
		return b
	}
	as := func() packet.ASID { return 1 + packet.ASID(next()%fzASes) }

	var pool packet.Pool
	if next()&1 == fzTrailers {
		pool.MakeTrailers()
	}
	var pkts [fzSlots]*packet.Packet
	var refs [fzSlots]*refPacket
	fresh := func(i int, src, dst, srcAS, size byte) {
		if pkts[i] != nil {
			pool.Put(pkts[i])
		}
		p := pool.Get()
		p.Src, p.Dst = packet.NodeID(src), packet.NodeID(dst)
		p.SrcAS, p.Size = 1+packet.ASID(srcAS%fzASes), 40+int32(size)
		pkts[i] = p
		refs[i] = &refPacket{hdr: packet.Packet{Src: p.Src, Dst: p.Dst, SrcAS: p.SrcAS, Size: p.Size}}
	}
	for i := range pkts {
		fresh(i, byte(10+i), 20, 0, 60)
	}
	agree := func(when string) {
		t.Helper()
		for i, p := range pkts {
			q := refs[i]
			var got packet.PassportStamp
			if p.Passport != nil {
				got = *p.Passport
			}
			if got.Present != q.present || got.Next != q.next || got.PVLink != q.pvLink ||
				!slices.Equal(got.Entries, q.entries) {
				t.Fatalf("%s: packet %d carries %+v, the by-value reference present %v next %d entries %v pvLink %d",
					when, i, got, q.present, q.next, q.entries, q.pvLink)
			}
		}
	}
	for step := 0; rd.Len() > 0; step++ {
		b := next()
		i := int(b>>4) % fzSlots
		p, q := pkts[i], refs[i]
		switch b & 15 % fzOps {
		case fzStamp:
			path := make([]packet.ASID, next()%9)
			for j := range path {
				path[j] = as()
			}
			r.Stamp(p, path)
			q.stamp(r, path)
		case fzVerify:
			at := as()
			ok, consume := q.check(r, at)
			q.apply(consume)
			if got := r.Verify(p, at); got != ok {
				t.Fatalf("step %d: Verify at AS %d = %v, reference %v", step, at, got, ok)
			}
		case fzCheck:
			at, doApply := as(), next()&1 != 0
			wantOK, wantConsume := q.check(r, at)
			ok, consume := r.Check(p, at, r.Key(p.SrcAS, at))
			if ok != wantOK || consume != wantConsume {
				t.Fatalf("step %d: Check at AS %d = (%v, %d), reference (%v, %d)", step, at, ok, consume, wantOK, wantConsume)
			}
			agree("after a Check, which must be pure")
			if doApply {
				Apply(p, consume)
				q.apply(wantConsume)
			}
		case fzForge:
			if j := next(); len(q.entries) > 0 {
				k := int(j) % len(q.entries)
				p.Passport.Entries[k].MAC[j%4] ^= 1 << (j % 8)
				q.entries[k].MAC[j%4] ^= 1 << (j % 8)
			}
		case fzSwap:
			if j, k := next(), next(); len(q.entries) > 0 {
				a, b := int(j)%len(q.entries), int(k)%len(q.entries)
				e := p.Passport.Entries
				e[a], e[b] = e[b], e[a]
				q.entries[a], q.entries[b] = q.entries[b], q.entries[a]
			}
		case fzTruncate:
			if k := next(); len(q.entries) > 0 {
				n := int(k) % (len(q.entries) + 1)
				p.Passport.Entries = p.Passport.Entries[:n]
				q.entries = q.entries[:n]
			}
		case fzRecycle:
			fresh(i, next(), next(), next(), next())
		case fzSpoof:
			switch what, v := next(), next(); what % 3 {
			case 0:
				p.SrcAS = 1 + packet.ASID(v%fzASes)
				q.hdr.SrcAS = p.SrcAS
			case 1:
				p.Size += int32(v)
				q.hdr.Size = p.Size
			case 2:
				p.Src ^= packet.NodeID(v)
				q.hdr.Src = p.Src
			}
		case fzVerdict:
			link := packet.LinkID(next())
			p.NeedPassport().PVLink = link
			q.pvLink = link
		}
		agree("after step " + strconv.Itoa(step))
	}
}

// FuzzPassportTrailer: Passport validation over arbitrary bytes. A
// program stamps paths of 0 to 8 ASes (known and unknown, so past the
// block's inline entries too), verifies whole or split at arbitrary
// ASes, forges, reorders and truncates entries, spoofs the header,
// leaves pipeline verdicts behind and recycles packets through a Pool
// in between — a plain one, whose packets make their block on first
// need, or a trailer-making one, whose packets are born with it; every
// verdict and, after every step, every packet's trailer state must equal
// the by-value reference's.
func FuzzPassportTrailer(f *testing.F) {
	join := func(pool byte, parts ...[]byte) []byte { return bytes.Join(append([][]byte{{pool}}, parts...), nil) }
	// The rows of TestCheckApplyMatchesVerify and their neighbours.
	f.Add(join(fzPlain, fzPath(0, 2, 3, 4), fzHops(fzVerify, 0, 2, 3, 4, 4, 9)))                                               // honest path
	f.Add(join(fzPlain, fzPath(0, 2, 3, 4), fzHops(fzCheck, 0, 3, 2, 4)))                                                      // skip then revisit
	f.Add(join(fzPlain, fzPath(1, 2, 3, 4), fzStep(fzForge, 1, 1), fzHops(fzCheck, 1, 2, 3, 4)))                               // corrupted mac
	f.Add(join(fzPlain, fzPath(2, 2, 3), fzStep(fzSpoof, 2, 0, 8), fzHops(fzVerify, 2, 2, 3)))                                 // spoofed source
	f.Add(join(fzPlain, fzPath(0, 2), fzStep(fzSpoof, 0, 1, 200), fzHops(fzVerify, 0, 2)))                                     // size inflation
	f.Add(join(fzPlain, fzHops(fzVerify, 0, 2), fzStep(fzVerdict, 0, 5), fzHops(fzCheck, 0, 2)))                               // no trailer, then a verdict-only block
	f.Add(join(fzPlain, fzPath(0, 2, 3, 4, 5, 6, 7, 8, 2), fzHops(fzVerify, 0, 2, 8, 2), fzPath(0, 3), fzHops(fzCheck, 0, 3))) // outgrows the inline entries, then a short path on the grown array
	f.Add(join(fzPlain, fzPath(0, 2, 3, 4), fzHops(fzVerify, 0, 2), fzStep(fzVerdict, 0, 7), fzStep(fzRecycle, 0, 1, 2, 0, 9),
		fzHops(fzCheck, 0, 2, 3), fzPath(0, 3, 4), fzHops(fzVerify, 0, 3, 4))) // a recycled packet starts clean
	f.Add(join(fzPlain, fzPath(0, 2, 3, 4), fzStep(fzSwap, 0, 0, 2), fzStep(fzTruncate, 0, 2), fzHops(fzVerify, 0, 4, 3, 2))) // reordered, truncated
	f.Add(join(fzPlain, fzStep(fzVerdict, 1, 3), fzPath(1, 2, 3), fzHops(fzCheck, 1, 2)))                                     // a stamp keeps the verdict
	// Blocks made on first need, then blocks the packets were born with:
	// a verdict-only block, a path past the inline entries, a recycle,
	// and a packet never stamped.
	bornWith := func(pool byte) []byte {
		return join(pool, fzHops(fzVerify, 0, 2), fzStep(fzVerdict, 0, 5), fzPath(0, 2, 3, 4, 5, 6, 7, 8, 2),
			fzHops(fzCheck, 0, 2, 3), fzStep(fzRecycle, 0, 1, 2, 0, 9), fzPath(0, 3, 4), fzHops(fzVerify, 0, 3, 4),
			fzHops(fzVerify, 1, 2), fzStep(fzVerdict, 2, 4))
	}
	f.Add(bornWith(fzPlain))
	f.Add(bornWith(fzTrailers))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		runTrailerProgram(t, prog)
	})
}
