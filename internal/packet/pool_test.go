package packet

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

// dirtyPacket fills every exported field of p with non-zero values via
// reflection, so the hygiene check below cannot silently miss a field
// added later.
func dirtyPacket(p *Packet, rng *rand.Rand) {
	v := reflect.ValueOf(p).Elem()
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if !v.Field(i).CanSet() {
					continue // unexported pool bookkeeping
				}
				fill(v.Field(i))
			}
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Slice:
			n := 1 + int(rng.Int64N(4))
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				fill(s.Index(i))
			}
			v.Set(s)
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(1 + rng.Int64N(1<<30))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(1 + rng.Uint64N(1<<30))
		case reflect.Float32, reflect.Float64:
			v.SetFloat(1 + rng.Float64())
		default:
			panic("dirtyPacket: unhandled kind " + v.Kind().String())
		}
	}
	fill(v)
}

// likeFresh reports whether p is indistinguishable from &Packet{} for
// every exported field, walking the struct by reflection. Slices compare
// by length and pointers by what they point to (a recycled packet may
// retain trailer capacity and a zeroed Ext block, both invisible to all
// packet consumers); everything else must be deeply zero.
func likeFresh(t *testing.T, path string, v reflect.Value) bool {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		ok := true
		tp := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if tp.Field(i).PkgPath != "" {
				continue // unexported pool bookkeeping
			}
			if !likeFresh(t, path+"."+tp.Field(i).Name, v.Field(i)) {
				ok = false
			}
		}
		return ok
	case reflect.Pointer:
		return v.IsNil() || likeFresh(t, path, v.Elem())
	case reflect.Slice:
		if v.Len() != 0 {
			t.Errorf("%s: recycled packet has %d element(s), fresh has none", path, v.Len())
			return false
		}
		return true
	default:
		if !v.IsZero() {
			t.Errorf("%s: recycled packet holds %v, fresh is zero", path, v)
			return false
		}
		return true
	}
}

// TestPoolHygieneProperty is the pool-hygiene property test: whatever
// state a packet accumulated in flight, recycling it through the pool
// must hand back a packet indistinguishable from a freshly allocated one.
func TestPoolHygieneProperty(t *testing.T) {
	var pool Pool
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		p := pool.Get()
		dirtyPacket(p, rng)
		pool.Put(p)
		q := pool.Get()
		if q != p {
			t.Fatal("pool did not recycle the released packet")
		}
		ok := likeFresh(t, "Packet", reflect.ValueOf(q).Elem())
		pool.Put(q)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolDoubleReleasePanics pins the double-free guard.
func TestPoolDoubleReleasePanics(t *testing.T) {
	var pool Pool
	p := pool.Get()
	pool.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	pool.Put(p)
}

// TestPoolIgnoresForeignPackets: hand-constructed packets (tests, probes)
// are not pool-managed and must survive a Put untouched.
func TestPoolIgnoresForeignPackets(t *testing.T) {
	var pool Pool
	p := &Packet{Flow: 42, Size: 1500}
	pool.Put(p)
	if p.Flow != 42 || p.Size != 1500 {
		t.Fatal("Put reset a non-pool packet")
	}
	if pool.Len() != 0 {
		t.Fatal("non-pool packet entered the free list")
	}
}

// TestPoolRetainsPassportCapacity documents the deliberate Reset
// exception for the trailer block: it survives recycling — the same
// block, every field zero, its entry array empty at the capacity it had,
// whether that is the inline one or an array a longer path grew — so
// stamping does not allocate per packet. A plain pool's fresh packet has
// no block until NeedPassport; a trailer-making pool's is made with a
// zeroed one, which NeedPassport returns.
func TestPoolRetainsPassportCapacity(t *testing.T) {
	for _, trailers := range []bool{false, true} {
		for _, n := range []int{2, passportInline, passportInline + 3} {
			var pool Pool
			if trailers {
				pool.MakeTrailers()
			}
			p := pool.Get()
			born := p.Passport
			if (born != nil) != trailers {
				t.Fatalf("trailer-making %v: fresh packet has trailer block %v", trailers, born)
			}
			st := p.NeedPassport()
			if len(st.Entries) != 0 || cap(st.Entries) != passportInline || p.NeedPassport() != st || (trailers && st != born) {
				t.Fatalf("trailer-making %v: block has entries len %d cap %d, want 0 and %d, and NeedPassport must return it", trailers, len(st.Entries), cap(st.Entries), passportInline)
			}
			if z := *st; !reflect.DeepEqual(z, PassportStamp{Entries: z.Entries}) {
				t.Fatalf("new trailer block not zeroed: %+v", z)
			}
			for i := 0; i < n; i++ {
				st.Entries = append(st.Entries, PassportMAC{AS: ASID(i + 1)})
			}
			grown := cap(st.Entries)
			st.Present, st.Next = true, 1
			pool.Put(p)
			q := pool.Get()
			if q.Passport != st {
				t.Fatal("recycled packet lost its trailer block")
			}
			if len(st.Entries) != 0 || cap(st.Entries) != grown {
				t.Fatalf("%d entries: recycled trailer has len %d cap %d, want 0 and %d", n, len(st.Entries), cap(st.Entries), grown)
			}
			if z := *st; !reflect.DeepEqual(z, PassportStamp{Entries: z.Entries}) {
				t.Fatalf("recycled trailer block not zeroed: %+v", z)
			}
		}
	}
}

// TestPoolMakesTrailers: a trailer-making pool carves each packet with
// its trailer block beside it, so one slab's worth of misses, each
// followed by NeedPassport, is one allocation, where a plain pool makes
// its slab and then a block per packet.
func TestPoolMakesTrailers(t *testing.T) {
	var plain, trailers Pool
	trailers.MakeTrailers()
	// Every Get misses: nothing is put back, and each run starts on a
	// slab boundary.
	for _, tc := range []struct {
		name string
		pool *Pool
		n    int
		want float64
	}{{"plain", &plain, slabLen, float64(1 + slabLen)}, {"trailer-making", &trailers, passportSlabLen, 1}} {
		if got := testing.AllocsPerRun(10, func() {
			for range tc.n {
				tc.pool.Get().NeedPassport()
			}
		}); got != tc.want {
			t.Errorf("%s pool: %d misses, each then NeedPassport, allocate %.1f times, want %.0f", tc.name, tc.n, got, tc.want)
		}
	}
}

// TestPoolCarvesSlabs: packets carved across slab boundaries are
// distinct, zeroed and pooled, a Passport packet with its own inline
// block; News counts each one; the uncarved rest of a slab is not idle
// (Len, Lend); and a recycled packet is handed out before a fresh one.
func TestPoolCarvesSlabs(t *testing.T) {
	for _, tc := range []struct {
		trailers bool
		slab     int
	}{{false, slabLen}, {true, passportSlabLen}} {
		var pool Pool
		if tc.trailers {
			pool.MakeTrailers()
		}
		n := 2*tc.slab + 1
		seen := map[*Packet]bool{}
		blocks := map[*PassportStamp]bool{}
		var last *Packet
		for i := range n {
			p := pool.Get()
			if seen[p] {
				t.Fatalf("trailer-making %v: packet %d handed out twice", tc.trailers, i)
			}
			seen[p] = true
			if !p.pooled || p.inPool || !likeFresh(t, "Packet", reflect.ValueOf(p).Elem()) {
				t.Fatalf("trailer-making %v: packet %d is not a zeroed pooled packet", tc.trailers, i)
			}
			if st := p.Passport; (st != nil) != tc.trailers {
				t.Fatalf("trailer-making %v: packet %d has trailer block %v", tc.trailers, i, st)
			} else if st != nil {
				if blocks[st] || cap(st.Entries) != passportInline {
					t.Fatalf("packet %d: block shared or not inline (cap %d)", i, cap(st.Entries))
				}
				blocks[st] = true
				st.Entries = append(st.Entries, PassportMAC{AS: ASID(i + 1)})
			}
			p.Flow = FlowID(i + 1) // a later packet sharing its memory would not look fresh
			last = p
		}
		if pool.Gets != uint64(n) || pool.News != uint64(n) {
			t.Fatalf("trailer-making %v: gets %d news %d, want %d each", tc.trailers, pool.Gets, pool.News, n)
		}
		if pool.Len() != 0 {
			t.Fatalf("trailer-making %v: the slab tail counts as %d idle packets", tc.trailers, pool.Len())
		}
		if lent := pool.Lend(nil, n); len(lent) != 0 {
			t.Fatalf("trailer-making %v: Lend lent %d packets from the slab tail", tc.trailers, len(lent))
		}
		pool.Put(last)
		if p := pool.Get(); p != last || pool.News != uint64(n) {
			t.Fatalf("trailer-making %v: a Get after a Put handed out a fresh packet (news %d)", tc.trailers, pool.News)
		}
	}
}

// TestPoolRetainsExt: the optional-header block survives recycling,
// zeroed, so Appendix B.1 and TVA+ runs do not allocate one per packet.
func TestPoolRetainsExt(t *testing.T) {
	var pool Pool
	p := pool.Get()
	if p.Ext != nil {
		t.Fatal("fresh packet already has an Ext")
	}
	x := p.NeedExt()
	x.MFB = MultiHeader{Present: true, Items: []MultiFB{{Link: 3}}}
	x.Cap.Present = true
	pool.Put(p)
	q := pool.Get()
	if q.Ext != x {
		t.Fatal("recycled packet lost its Ext block")
	}
	if !reflect.DeepEqual(*q.Ext, Ext{}) {
		t.Fatalf("recycled Ext not zeroed: %+v", *q.Ext)
	}
}

// TestLendAdopt: structs lent by one pool and adopted by another stay
// idle throughout — neither pool allocates for them, a short free list
// lends what it has, and an adopted struct is drawn like any other, with
// the trailer block it was made with, zeroed.
func TestLendAdopt(t *testing.T) {
	var home, away Pool
	home.MakeTrailers()
	var ps []*Packet
	blocks := map[*Packet]*PassportStamp{}
	for i := 0; i < 3; i++ {
		p := home.Get()
		ps, blocks[p] = append(ps, p), p.Passport
	}
	for _, p := range ps {
		p.NeedExt().Cap.Present = true
		p.Passport.Entries = append(p.Passport.Entries, PassportMAC{AS: 1})
		p.Passport.Present, p.Passport.Next = true, 1
		away.Put(p) // the packets ended their lives on the other shard
	}
	empties := away.Lend(nil, 2)
	empties = away.Lend(empties, 5) // short: one left
	if len(empties) != 3 || away.Len() != 0 {
		t.Fatalf("lent %d of 3, %d still on the lender's free list", len(empties), away.Len())
	}
	home.Adopt(empties)
	if home.Len() != 3 || home.News != 3 || away.News != 0 {
		t.Fatalf("home idles %d (fresh %d), away fresh %d", home.Len(), home.News, away.News)
	}
	p := home.Get()
	if home.News != 3 || p.Ext == nil || p.Ext.Cap.Present {
		t.Fatalf("an adopted struct was not reused clean: fresh %d, ext %+v", home.News, p.Ext)
	}
	if st := p.Passport; st != blocks[p] || !reflect.DeepEqual(*st, PassportStamp{Entries: st.Entries}) ||
		len(st.Entries) != 0 || cap(st.Entries) != passportInline {
		t.Fatalf("an adopted struct came back without its own trailer block, zeroed: %+v", *st)
	}
	home.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release of an adopted struct not caught")
		}
	}()
	home.Put(p)
}
