package packet

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindLegacy:  "legacy",
		KindRequest: "request",
		KindRegular: "regular",
		Kind(9):     "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestIsSYN(t *testing.T) {
	p := Packet{Proto: ProtoTCP, TCP: TCPInfo{Flags: FlagSYN}}
	if !p.IsSYN() {
		t.Fatal("SYN not recognized")
	}
	p.TCP.Flags |= FlagACK
	if p.IsSYN() {
		t.Fatal("SYN-ACK misclassified as SYN")
	}
	p = Packet{Proto: ProtoUDP, TCP: TCPInfo{Flags: FlagSYN}}
	if p.IsSYN() {
		t.Fatal("UDP packet classified as SYN")
	}
}

func TestReverse(t *testing.T) {
	p := Packet{Src: 1, Dst: 2, SrcAS: 10, DstAS: 20}
	src, dst, sas, das := p.Reverse()
	if src != 2 || dst != 1 || sas != 20 || das != 10 {
		t.Fatalf("Reverse = %v %v %v %v", src, dst, sas, das)
	}
}

func TestCapabilityValidity(t *testing.T) {
	prop := func(dst int32, expire uint32, now uint32, queryDst int32) bool {
		c := Capability{Present: true, Dst: NodeID(dst), Expire: expire}
		got := c.Valid(NodeID(queryDst), now)
		want := NodeID(queryDst) == NodeID(dst) && now <= expire
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if (Capability{Dst: 1, Expire: 10}).Valid(1, 5) {
		t.Fatal("absent capability validated")
	}
}

func TestFeedbackModePredicates(t *testing.T) {
	f := Feedback{Mode: FBNop}
	if !f.IsNop() || f.IsMon() {
		t.Fatal("nop predicates wrong")
	}
	f.Mode = FBMon
	if f.IsNop() || !f.IsMon() {
		t.Fatal("mon predicates wrong")
	}
}

func TestSizeConstantsMatchPaper(t *testing.T) {
	// §4.6: a request packet is 92 bytes — 40 TCP/IP + 28 NetFence + 24
	// Passport.
	if SizeRequest != 92 {
		t.Fatalf("SizeRequest = %d, want 92", SizeRequest)
	}
	if SizeIPTCP+SizeNetFenceMx+SizePassport != SizeRequest {
		t.Fatal("request size does not decompose per §4.6")
	}
	if SizeData != 1500 {
		t.Fatalf("SizeData = %d", SizeData)
	}
	if SizeNetFence != 20 || SizeNetFenceMx != 28 {
		t.Fatal("NetFence header size constants drifted from §6.1")
	}
}

// TestPacketLayoutBudget pins the packet to two cache lines of one
// 64-aligned allocator class: every pooled, limiter-cached and in-flight
// packet costs this much heap, and Reset rewrites this much per recycle.
// What every hop reads stays in the first line, what access routers and
// shims read in the second; a field that does not fit belongs behind
// the trailer block or Ext. A packet made with its trailer block, as a
// Passport run's pool makes them, takes 200 bytes: 8 bytes less per
// packet than the struct and block allocated apart. A pool's slab of
// either kind fills its allocator class, 8192 and 12288 bytes, short of
// room for one more packet.
func TestPacketLayoutBudget(t *testing.T) {
	var p Packet
	if n := unsafe.Sizeof(p); n > 128 {
		t.Fatalf("Packet is %d bytes, budget 128", n)
	}
	for _, f := range []struct {
		name string
		off  uintptr
		line uintptr
	}{
		{"Dst", unsafe.Offsetof(p.Dst), 0}, {"Size", unsafe.Offsetof(p.Size), 0},
		{"Flow", unsafe.Offsetof(p.Flow), 0}, {"Kind", unsafe.Offsetof(p.Kind), 0},
		{"FB", unsafe.Offsetof(p.FB), 1}, {"Ret", unsafe.Offsetof(p.Ret), 1},
		{"Passport", unsafe.Offsetof(p.Passport), 1}, {"Ext", unsafe.Offsetof(p.Ext), 1},
	} {
		if f.off/64 != f.line {
			t.Errorf("Packet.%s at offset %d, want it in cache line %d", f.name, f.off, f.line)
		}
	}
	if n := unsafe.Sizeof(PassportStamp{}); n > 32 {
		t.Fatalf("PassportStamp is %d bytes, budget 32: with its %d inline entries the block leaves the 80-byte class", n, passportInline)
	}
	if n := unsafe.Sizeof(passportPacket{}); n > 200 {
		t.Fatalf("a packet made with its trailer block is %d bytes, budget 200: its slab holds fewer than 61", n)
	}
	for _, s := range []struct {
		name              string
		slab, elem, class uintptr
	}{
		{"bare", unsafe.Sizeof([slabLen]Packet{}), unsafe.Sizeof(Packet{}), 8192},
		{"Passport", unsafe.Sizeof([passportSlabLen]passportPacket{}), unsafe.Sizeof(passportPacket{}), 12288},
	} {
		if s.slab > s.class || s.slab <= s.class-s.elem {
			t.Errorf("%s slab is %d bytes: want it to fill the %d-byte class with room for less than one more %d-byte packet", s.name, s.slab, s.class, s.elem)
		}
	}
}
