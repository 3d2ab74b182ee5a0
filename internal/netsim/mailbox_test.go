package netsim

import (
	"reflect"
	"testing"

	"netfence/internal/packet"
	"netfence/internal/sim"
)

// fillPacket populates every exported field of p — optional headers,
// a Passport trailer consumed past its first entry, a cached verdict of
// each kind — for a packet bound for dst.
func fillPacket(p *packet.Packet, dst packet.NodeID) {
	p.UID = 99
	p.Src, p.Dst = 7, dst
	p.SrcAS, p.DstAS = 1, 2
	p.Flow = 5
	p.Size, p.Payload = 1500, 1400
	p.Kind, p.Prio, p.Proto = packet.KindRegular, 3, packet.ProtoTCP
	p.TCP = packet.TCPInfo{Flags: packet.FlagACK, Seq: 1000, Ack: 2000}
	p.FB = packet.Feedback{Mode: packet.FBMon, Link: 4, Action: packet.ActDecr, TS: 12,
		MAC: [4]byte{1, 2, 3, 4}, TokenNop: [4]byte{5, 6, 7, 8}}
	p.Ret = packet.Returned{Present: true, Mode: packet.FBMon, Link: 4, Action: packet.ActDecr, TS: 11,
		MAC: [4]byte{9, 8, 7, 6}}
	p.PVLink, p.PVOK, p.PVConsume = 3, true, 1
	p.FVNode, p.FVSet, p.FVEpoch, p.FVVerdict = 2, true, 6, 2
	p.Passport.Present = true
	p.Passport.Next = 1
	p.Passport.Entries = append(p.Passport.Entries[:0],
		packet.PassportMAC{AS: -1, MAC: [4]byte{1, 1, 1, 1}},
		packet.PassportMAC{AS: 2, MAC: [4]byte{2, 2, 2, 2}})
	p.EnqueuedAt, p.SentAt = 17, 13
	x := p.NeedExt()
	x.MFB = packet.MultiHeader{Present: true, TS: 12, Token: [4]byte{4, 3, 2, 1},
		Items: []packet.MultiFB{{Link: 4, Action: packet.ActDecr}, {Link: 6, Action: packet.ActIncr}}}
	x.RetMFB = packet.MultiHeader{Present: true, TS: 10, Token: [4]byte{1, 3, 5, 7},
		Items: []packet.MultiFB{{Link: 9, Action: packet.ActDecr}}}
	x.Cap = packet.Capability{Present: true, Dst: dst, Expire: 40}
	x.CapGrant = packet.Capability{Present: true, Dst: 7, Expire: 50}
}

// TestHandoffPreservesPacket: a packet crosses a cut link by value. What
// arrives on the destination replica equals what was sent in every
// field, is a struct of the destination's pool, and shares no memory
// with the source's struct, which is back in the source's pool.
func TestHandoffPreservesPacket(t *testing.T) {
	a, _, _, cut := lineTopo(1_000_000)
	b, _, bh2, bmid := lineTopo(1_000_000)
	mb := NewMailbox(bmid)
	cut.SetMailbox(mb)

	var got *packet.Packet
	bmid.To.Ingress = func(p *packet.Packet, _ *Link) bool {
		got = p
		return false // consumed: the test owns it now
	}

	src := a.Pool.Get()
	fillPacket(src, bh2.ID)
	v := reflect.ValueOf(src).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
			t.Fatalf("fillPacket leaves Packet.%s zero: extend it", f.Name)
		}
	}
	// The arrays the source's struct owns, to scribble on afterwards.
	entries := src.Passport.Entries
	items, retItems := src.Ext.MFB.Items, src.Ext.RetMFB.Items

	var wantPool packet.Pool
	want := wantPool.Get()
	fillPacket(want, bh2.ID)
	want.EnqueuedAt = 5 // the cut link's queue stamps its own clock

	a.Eng.At(5, func() { cut.Send(src) })
	a.Eng.Run()
	if a.Pool.Len() != 1 || a.Pool.Get() != src {
		t.Fatal("the source's struct did not return to the source's pool at the handoff")
	}
	if !mb.Drain(sim.Second) {
		t.Fatal("nothing drained")
	}
	b.Eng.Run()
	if got == nil {
		t.Fatal("the packet did not arrive on the destination replica")
	}
	if got == src || b.Pool.News != 1 {
		t.Fatalf("the arrival is not a packet of the destination's pool (fresh there: %d)", b.Pool.News)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arrived packet differs from what was sent:\n got %+v\n     %+v\nwant %+v\n     %+v", got, got.Ext, want, want.Ext)
	}

	// The source reuses its struct and arrays for something else.
	fillPacket(src, 0)
	src.Ext.Cap.Expire = 77
	for i := range entries {
		entries[i] = packet.PassportMAC{AS: 77}
	}
	items[0].Link, retItems[0].Link = 77, 77
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arrived packet changed when the source reused its struct:\n got %+v\n     %+v", got, got.Ext)
	}
}
