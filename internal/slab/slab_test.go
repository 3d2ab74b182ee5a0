package slab

import (
	"testing"
	"unsafe"
)

type (
	tiny struct{ v uint8 }
	mid  struct{ v, a, b uint64 }
	big  struct {
		v   uint64
		pad [25]uint64
	}
)

// TestChunkLen: a chunk holds as many values as fit in the budget
// beside the allocator's header, DefaultBytes when none is given, and
// never fewer than one.
func TestChunkLen(t *testing.T) {
	var d Slab[mid]
	if got, want := d.ChunkLen(), (DefaultBytes-Header)/24; got != want {
		t.Errorf("default chunk holds %d 24-byte values, want %d", got, want)
	}
	if s := Sized[mid](6152); s.ChunkLen() != 256 {
		t.Errorf("a 6152-byte chunk holds %d 24-byte values, want 256", s.ChunkLen())
	}
	if s := Sized[big](100); s.ChunkLen() != 1 {
		t.Errorf("a budget smaller than the value holds %d, want 1", s.ChunkLen())
	}
	if s := Sized[struct{}](64); s.ChunkLen() != 1 {
		t.Errorf("a zero-size value's chunk holds %d, want 1", s.ChunkLen())
	}
}

// TestNewCarvesChunks: New allocates once per chunk, and a reserved
// batch ends on a chunk of exactly its remainder.
func TestNewCarvesChunks(t *testing.T) {
	s := Sized[mid](10*24 + Header)
	if got := testing.AllocsPerRun(10, func() {
		for i := 0; i < 10; i++ {
			s.New()
		}
	}); got != 1 {
		t.Errorf("ten News on ten-value chunks cost %.0f allocations, want 1", got)
	}
	if got := testing.AllocsPerRun(10, func() {
		s.Reserve(25)
		for i := 0; i < 25; i++ {
			s.New()
		}
		if len(s.rest) != 0 {
			t.Fatalf("a reserved batch of 25 left %d values uncarved", len(s.rest))
		}
	}); got != 3 {
		t.Errorf("a reserved batch of 25 cost %.0f allocations, want 3", got)
	}
}

// FuzzSlab runs arbitrary programs of New and Reserve on slabs of three
// value sizes and five budgets against a reference of individually
// allocated values. Every value must be zeroed when handed out and
// distinct from every other; each carries a mark, written through its
// pointer and into its reference, that must still read back after every
// step, so no value moves or is handed out twice. Every chunk stays
// within its byte budget, the allocator's header included: a whole chunk
// holds ChunkLen values, filling the budget short of room for one more,
// and the last chunk of a
// reservation holds exactly what was left of it, so a reserved batch
// leaves nothing uncarved.
func FuzzSlab(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 255, 20, 0, 0, 0, 200, 5, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 255, 39, 1, 2, 192, 7, 0})
	f.Add([]byte{9, 255, 1, 0, 255, 0, 0, 255, 2, 0, 0, 0})
	f.Add([]byte{13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append([]byte{16}, make([]byte, 300)...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		budget := []int{0, 64, 100, 6144, 12288}[int(prog[0]>>2)%5]
		switch prog[0] % 3 {
		case 0:
			runSlab(t, Sized[tiny](budget), prog[1:], func(p *tiny, m uint64) { p.v = uint8(m) | 1 }, func(p *tiny) uint64 { return uint64(p.v) })
		case 1:
			runSlab(t, Sized[mid](budget), prog[1:], func(p *mid, m uint64) { p.v, p.b = m, ^m }, func(p *mid) uint64 { return p.v ^ p.b })
		default:
			runSlab(t, Sized[big](budget), prog[1:], func(p *big, m uint64) { p.v, p.pad[24] = m, m }, func(p *big) uint64 { return p.v ^ p.pad[24] })
		}
	})
}

// runSlab interprets prog on s: an op byte below 192 carves one value,
// any other reserves the next byte mod 40. set marks a value; sum reads
// a marked value back as a number that depends on the mark.
func runSlab[T comparable](t *testing.T, s Slab[T], prog []byte, set func(*T, uint64), sum func(*T) uint64) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	budget := s.bytes
	if budget == 0 {
		budget = DefaultBytes
	}
	seen := map[*T]bool{}
	var got, ref []*T
	reserved := 0 // values the open reservation has yet to carve
	for i := 0; i < len(prog); i++ {
		if op := prog[i]; op >= 192 && i+1 < len(prog) {
			i++
			reserved = int(prog[i]) % 40
			before := s.rest
			s.Reserve(reserved)
			if unsafe.SliceData(s.rest) != unsafe.SliceData(before) || len(s.rest) != len(before) {
				t.Fatalf("Reserve(%d) moved the chunk's rest", reserved)
			}
			continue
		}
		fresh := len(s.rest) == 0
		want := s.ChunkLen()
		if fresh && reserved > len(s.rest) {
			want = min(want, reserved)
		}
		reserved = max(reserved-1, 0)
		p := s.New()
		if *p != zero {
			t.Fatalf("value %d handed out non-zero", len(got))
		}
		if seen[p] {
			t.Fatalf("value %d handed out twice", len(got))
		}
		if fresh {
			n := cap(s.rest) + 1
			if n != want || n*size > budget-Header && n > 1 {
				t.Fatalf("a chunk holds %d values of %d bytes, want %d within %d bytes", n, size, want, budget)
			}
			if n == s.ChunkLen() && size > 0 && budget-Header-n*size >= size {
				t.Fatalf("a whole chunk of %d values of %d bytes leaves room for another in %d bytes", n, size, budget)
			}
		}
		if reserved == 0 && len(s.rest) > 0 && fresh && want < s.ChunkLen() {
			t.Fatalf("a reservation's last chunk left %d values uncarved", len(s.rest))
		}
		seen[p] = true
		mark := uint64(len(got))*0x9e3779b97f4a7c15 + 1
		set(p, mark)
		r := new(T)
		set(r, mark)
		got, ref = append(got, p), append(ref, r)
		for k := range got {
			if sum(got[k]) != sum(ref[k]) {
				t.Fatalf("after %d values, value %d reads %d, its reference %d", len(got), k, sum(got[k]), sum(ref[k]))
			}
		}
	}
}
