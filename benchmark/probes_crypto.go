package main

import (
	"math/rand/v2"

	"netfence/internal/cmac"
	"netfence/internal/core"
	"netfence/internal/defense"
	"netfence/internal/feedback"
	"netfence/internal/header"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/passport"
	"netfence/internal/ratelimit"
	"netfence/internal/sim"
)

func seededKey(rng *xorshift) cmac.Key {
	var k cmac.Key
	for i := range k {
		k[i] = byte(rng.next())
	}
	return k
}

func probeCrypto(l *ledger, seed uint64) {
	rng := newXorshift(seed)
	mac := cmac.New(seededKey(rng))
	msg := make([]byte, 64)
	for i := range msg {
		msg[i] = byte(rng.next())
	}
	var sink byte
	sum := func(size int) float64 {
		return bestNs(l.count(300_000), func(n int) {
			for i := 0; i < n; i++ {
				msg[0] = byte(i)
				t := mac.Sum(msg[:size])
				sink ^= t[0]
			}
		})
	}
	l.set("cmac.sum16_ns", sum(16))
	l.set("cmac.sum64_ns", sum(64))

	// One batch of 32 24-byte messages (the feedback MAC input size)
	// against their truncated tags; reported per message.
	const batch = 32
	msgs := make([][]byte, batch)
	tags := make([][4]byte, batch)
	ok := make([]bool, batch)
	for i := range msgs {
		msgs[i] = make([]byte, 24)
		for j := range msgs[i] {
			msgs[i][j] = byte(rng.next())
		}
		tags[i] = mac.Sum32(msgs[i])
	}
	verified := 0
	l.set("cmac.verify_batch32_ns", bestNs(l.count(10_000)*batch, func(n int) {
		for done := 0; done < n; done += batch {
			verified += mac.VerifyBatch32(msgs, tags, ok)
		}
	}))
	if verified == 0 {
		logf("cmac.verify_batch32_ns: nothing verified")
	}

	// Feedback stamping and validation (the Figure 7 operations on the
	// simulator's packet struct rather than the wire codec).
	ring := feedback.NewKeyRingFromKey(seededKey(rng))
	kai := cmac.New(seededKey(rng))
	lookup := func(packet.LinkID) *cmac.CMAC { return kai }
	p := &packet.Packet{Src: 10, Dst: 20}
	l.set("feedback.stamp_nop_ns", bestNs(l.count(300_000), func(n int) {
		for i := 0; i < n; i++ {
			feedback.StampNop(ring.Current(), p, 100)
		}
	}))
	l.set("feedback.stamp_decr_ns", bestNs(l.count(150_000), func(n int) {
		for i := 0; i < n; i++ {
			feedback.StampIncr(ring.Current(), p, 100, 9) // restore L-up
			feedback.StampDecr(kai, p, 9)
		}
	}))
	feedback.StampIncr(ring.Current(), p, 100, 9)
	valid := 0
	l.set("feedback.validate_incr_ns", bestNs(l.count(300_000), func(n int) {
		for i := 0; i < n; i++ {
			if feedback.Validate(ring, lookup, p, 101, 4) == feedback.ValidMon {
				valid++
			}
		}
	}))
	if valid == 0 {
		logf("feedback.validate_incr_ns: feedback did not validate")
	}

	// Passport: a three-AS path trailer stamped at the source border,
	// verified (and consumed) at the first transit AS, and the pure
	// check the validation pipeline runs.
	ases := []packet.ASID{1, 2, 3, 4}
	reg := passport.NewRegistry(rand.New(rand.NewPCG(seed, 2)), ases)
	pp := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, DstAS: 4, Size: packet.SizeData}
	path := ases[1:]
	l.set("passport.stamp_ns", bestNs(l.count(100_000), func(n int) {
		for i := 0; i < n; i++ {
			reg.Stamp(pp, path)
		}
	}))
	good := 0
	l.set("passport.verify_ns", bestNs(l.count(300_000), func(n int) {
		for i := 0; i < n; i++ {
			pp.Passport.Next = 0 // un-consume, so every call verifies a MAC
			if reg.Verify(pp, 2) {
				good++
			}
		}
	}))
	pp.Passport.Next = 0
	key := reg.Key(1, 2)
	l.set("passport.check_ns", bestNs(l.count(300_000), func(n int) {
		for i := 0; i < n; i++ {
			if okk, _ := reg.Check(pp, 2, key); okk {
				good++
			}
		}
	}))
	if good == 0 {
		logf("passport probes: the trailer did not verify")
	}
	sentinelSink += uint64(sink)
}

func probeAccess(l *ledger, seed uint64) {
	// host - access router - core router - destination host, NetFence
	// deployed: packets enter the policing code through the router's
	// Ingress hook, exactly as arrivals from the host uplink do.
	eng := sim.New(seed)
	net := netsim.New(eng)
	h := net.NewHost("h", 1)
	r := net.NewNode("r", 1)
	c := net.NewNode("c", 2)
	d := net.NewHost("d", 2)
	up, _ := net.Connect(h, r, 1_000_000_000, sim.Millisecond)
	net.Connect(r, c, 1_000_000_000, sim.Millisecond)
	net.Connect(c, d, 1_000_000_000, sim.Millisecond)
	net.ComputeRoutes()
	sys := core.NewSystem(net, core.DefaultConfig())
	sys.ProtectAccess(r)
	sys.AttachHost(h, defense.Policy{})

	p := &packet.Packet{Src: h.ID, Dst: d.ID, SrcAS: 1, DstAS: 2, Flow: 1, Size: packet.SizeRequest, Proto: packet.ProtoUDP}
	passed := 0
	request := func(n int) {
		for i := 0; i < n; i++ {
			p.Kind, p.Prio = packet.KindRequest, 0
			if r.Ingress(p, up) {
				passed++
			}
		}
	}
	l.set("core.access_request_ns", bestNs(l.count(300_000), request))
	l.set("core.access_request_allocs", allocsPerOp(l.count(100_000), request))
	// The request pass left valid nop feedback on the packet; presented
	// again on a regular packet it is validated and refreshed — the
	// "regular packet, no attack" row of Figure 7.
	l.set("core.access_regular_ns", bestNs(l.count(200_000), func(n int) {
		for i := 0; i < n; i++ {
			p.Kind = packet.KindRegular
			if r.Ingress(p, up) {
				passed++
			}
		}
	}))
	if passed == 0 {
		logf("access probes: the access router passed nothing")
	}
	// A data packet leaving a host that holds no feedback for the peer:
	// the shim classifies it onto the request channel.
	shim := core.Shim(h)
	q := &packet.Packet{Src: h.ID, Dst: d.ID, SrcAS: 1, DstAS: 2, Flow: 2, Size: packet.SizeData, Proto: packet.ProtoUDP}
	l.set("core.shim_egress_ns", bestNs(l.count(500_000), func(n int) {
		for i := 0; i < n; i++ {
			shim.Egress(q)
		}
	}))

	// The rate-limit primitives under the access router.
	lim := ratelimit.NewLeakyLimiter(eng, 100_000_000_000_000, sim.Second, func(*packet.Packet) {})
	l.set("ratelimit.leaky_submit_ns", bestNs(l.count(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			if lim.Submit(q) == ratelimit.Pass {
				passed++
			}
		}
	}))
	rl := ratelimit.NewRequestLimiter(0)
	now := sim.Time(0)
	l.set("ratelimit.request_admit_ns", bestNs(l.count(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			now += sim.Millisecond
			if rl.Admit(1, now) {
				passed++
			}
		}
	}))
	aimd := ratelimit.DefaultAIMD()
	rate := int64(1_000_000)
	l.set("ratelimit.aimd_adjust_ns", bestNs(l.count(2_000_000), func(n int) {
		for i := 0; i < n; i++ {
			rate = aimd.Adjust(rate, i&3 != 0, rate)
		}
	}))
	sentinelSink += uint64(rate)
}

func probeCodec(l *ledger, seed uint64) {
	// The wire codec of the Figure 7 table. The simulator's data path
	// never runs it; the rows are here so a codec change has a ruler.
	rng := newXorshift(seed)
	ring := feedback.NewKeyRingFromKey(seededKey(rng))
	kai := cmac.New(seededKey(rng))
	var buf [header.MaxSize]byte
	pk := packet.Packet{Src: 10, Dst: 20}
	feedback.StampIncr(ring.Current(), &pk, 100, 7)
	h := header.Header{Ver: header.Version, Proto: packet.ProtoTCP, FB: pk.FB}
	size := 0
	l.set("header.encode_ns", bestNs(l.count(500_000), func(n int) {
		for i := 0; i < n; i++ {
			size = header.Encode(buf[:], &h)
		}
	}))
	decoded := 0
	l.set("header.decode_ns", bestNs(l.count(500_000), func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := header.Decode(buf[:size], 100); err == nil {
				decoded++
			}
		}
	}))
	req := header.Header{Ver: header.Version, Request: true, Proto: packet.ProtoTCP}
	header.Encode(buf[:], &req)
	stamped := 0
	l.set("header.access_stamp_request_ns", bestNs(l.count(250_000), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := header.AccessStampRequest(buf[:], ring, 10, 20, 100); err == nil {
				stamped++
			}
		}
	}))
	l.set("header.bottleneck_stamp_ns", bestNs(l.count(125_000), func(n int) {
		for i := 0; i < n; i++ {
			header.AccessStampRequest(buf[:], ring, 10, 20, 100) // restore nop
			if _, _, err := header.BottleneckStampMon(buf[:], kai, 7, 10, 20, true, 100); err == nil {
				stamped++
			}
		}
	}))
	if decoded == 0 || stamped == 0 {
		logf("codec probes: decode or stamp failed")
	}
}
