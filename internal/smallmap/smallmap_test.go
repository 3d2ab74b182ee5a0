package smallmap

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

// TestMapLayout pins the sizes an inline slot without a flag buys: the
// instantiations the simulator keeps per host — 8-byte flow keys to an
// agent or a time — cost 32 and 24 bytes.
func TestMapLayout(t *testing.T) {
	type iface interface{ M() }
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Map[int32, *T]", unsafe.Sizeof(Map[int32, *int]{}), 24},
		{"Map[uint32, iface]", unsafe.Sizeof(Map[uint32, iface]{}), 32},
		{"Map[uint64, iface]", unsafe.Sizeof(Map[uint64, iface]{}), 32},
		{"Map[uint64, int64]", unsafe.Sizeof(Map[uint64, int64]{}), 24},
	} {
		if c.size != c.max {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.size, c.max)
		}
	}
}

// TestMatchesBuiltinMap drives a Map and a built-in map with the same
// random Set/Delete/Get sequence over a small key space that includes
// the zero key (which never takes the inline slot), so the slot is
// vacated and refilled while the table holds other keys.
func TestMatchesBuiltinMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 200; round++ {
		var m Map[int, int]
		ref := map[int]int{}
		for step := 0; step < 200; step++ {
			k := rng.IntN(5)
			switch rng.IntN(3) {
			case 0:
				v := rng.Int()
				m.Set(k, v)
				ref[k] = v
			case 1:
				m.Delete(k)
				delete(ref, k)
			}
			got, ok := m.Get(k)
			want, wok := ref[k]
			if got != want || ok != wok {
				t.Fatalf("round %d step %d: Get(%d) = %d,%v want %d,%v", round, step, k, got, ok, want, wok)
			}
			if m.Len() != len(ref) {
				t.Fatalf("round %d step %d: Len = %d want %d", round, step, m.Len(), len(ref))
			}
		}
	}
}

// TestSingleEntryNeverAllocates: one key set, replaced, deleted and set
// again stays inline.
func TestSingleEntryNeverAllocates(t *testing.T) {
	var m Map[uint32, int64]
	allocs := testing.AllocsPerRun(100, func() {
		m.Set(7, 1)
		m.Set(7, 2)
		m.Delete(7)
		m.Set(8, 3)
		m.Delete(8)
	})
	if allocs != 0 {
		t.Fatalf("single-entry use allocated %v times per run", allocs)
	}
}
