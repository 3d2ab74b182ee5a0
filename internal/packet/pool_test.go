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
	p := &Packet{UID: 42, Size: 1500}
	pool.Put(p)
	if p.UID != 42 || p.Size != 1500 {
		t.Fatal("Put reset a non-pool packet")
	}
	if pool.Len() != 0 {
		t.Fatal("non-pool packet entered the free list")
	}
}

// TestPoolRetainsPassportCapacity documents the one deliberate Reset
// exception: the Passport trailer's backing array survives recycling so
// stamping does not allocate per packet.
func TestPoolRetainsPassportCapacity(t *testing.T) {
	var pool Pool
	p := pool.Get()
	p.Passport.Entries = append(p.Passport.Entries, PassportMAC{AS: 1}, PassportMAC{AS: 2})
	pool.Put(p)
	q := pool.Get()
	if len(q.Passport.Entries) != 0 {
		t.Fatalf("recycled trailer has length %d", len(q.Passport.Entries))
	}
	if cap(q.Passport.Entries) < 2 {
		t.Fatalf("recycled trailer lost its capacity: %d", cap(q.Passport.Entries))
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

// TestCopyFromIsDeep: a copy equals its source in every exported field
// and shares no memory with it — whatever the source held, and whatever
// the destination had retained from an earlier life.
func TestCopyFromIsDeep(t *testing.T) {
	var srcPool, dstPool Pool
	prop := func(seed uint64, recycled bool) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		src, dst := srcPool.Get(), dstPool.Get()
		dirtyPacket(src, rng)
		if recycled {
			// dst retains a trailer array and an Ext of its own.
			dirtyPacket(dst, rng)
			dstPool.Put(dst)
			dst = dstPool.Get()
		}
		// The same seed fills the same values: an independent record of
		// what src held.
		want := &Packet{pooled: true}
		dirtyPacket(want, rand.New(rand.NewPCG(seed, 9)))
		ownExt := dst.Ext
		dst.CopyFrom(src)
		if !reflect.DeepEqual(dst, want) {
			t.Errorf("copy differs from source:\n got %+v\nwant %+v", dst, want)
			return false
		}
		if recycled && dst.Ext != ownExt {
			t.Error("copy dropped the destination's retained Ext")
			return false
		}
		// Scribble over everything the source owns.
		for i := range src.Passport.Entries {
			src.Passport.Entries[i].AS = -7
		}
		for i := range src.Ext.MFB.Items {
			src.Ext.MFB.Items[i].Link = 0xdead
		}
		for i := range src.Ext.RetMFB.Items {
			src.Ext.RetMFB.Items[i].Link = 0xdead
		}
		src.Ext.Cap.Expire++
		srcPool.Put(src)
		if !reflect.DeepEqual(dst, want) {
			t.Errorf("copy changed when its source was mutated and recycled:\n got %+v\nwant %+v", dst, want)
			return false
		}
		dstPool.Put(dst)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyFromWithoutExt: copying an Ext-less packet into one that
// retains an Ext leaves that Ext zeroed, not stale.
func TestCopyFromWithoutExt(t *testing.T) {
	var pool Pool
	dst := pool.Get()
	dst.NeedExt().Cap.Present = true
	dst.CopyFrom(&Packet{Src: 1, Dst: 2})
	if dst.Ext == nil || !reflect.DeepEqual(*dst.Ext, Ext{}) {
		t.Fatalf("retained Ext not cleared by an Ext-less copy: %+v", dst.Ext)
	}
}
