// Benchmarks of the paper's Figure 7: micro-benchmarks of the
// per-packet data-path operations, whose ns/op is directly comparable
// to the paper's table:
//
//	go test -bench Fig7 -benchmem -run '^$' .
//
// The §6 figures are regenerated by cmd/netfence-sim and their shapes
// asserted by internal/exp's tests; end-to-end and per-layer speed is
// measured by the benchmark harness (benchmark/, BENCHMARK.json).
package netfence_test

import (
	"testing"

	"netfence/internal/cmac"
	"netfence/internal/feedback"
	"netfence/internal/header"
	"netfence/internal/packet"
)

// --- Figure 7: per-packet processing overhead (micro) ---

func fig7Keys() (*feedback.KeyRing, *cmac.CMAC, feedback.KaiLookup) {
	var ka, kaiKey cmac.Key
	ka[0], kaiKey[0] = 1, 2
	kai := cmac.New(kaiKey)
	return feedback.NewKeyRingFromKey(ka), kai, func(packet.LinkID) *cmac.CMAC { return kai }
}

// BenchmarkFig7AccessRequest measures the access router stamping nop
// feedback into a request packet (paper: 546 ns).
func BenchmarkFig7AccessRequest(b *testing.B) {
	ring, _, _ := fig7Keys()
	var buf [header.MaxSize]byte
	h := header.Header{Ver: header.Version, Request: true, Proto: packet.ProtoTCP}
	header.Encode(buf[:], &h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := header.AccessStampRequest(buf[:], ring, 10, 20, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7BottleneckRequestAttack measures a monitored bottleneck
// stamping L-down into a request packet (paper: 492 ns).
func BenchmarkFig7BottleneckRequestAttack(b *testing.B) {
	ring, kai, _ := fig7Keys()
	var buf [header.MaxSize]byte
	h := header.Header{Ver: header.Version, Request: true, Proto: packet.ProtoTCP}
	header.Encode(buf[:], &h)
	header.AccessStampRequest(buf[:], ring, 10, 20, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		header.AccessStampRequest(buf[:], ring, 10, 20, 100) // restore nop
		if _, _, err := header.BottleneckStampMon(buf[:], kai, 7, 10, 20, true, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7BottleneckRegularAttack measures L-up being overwritten
// with L-down on a regular packet (paper: 554 ns).
func BenchmarkFig7BottleneckRegularAttack(b *testing.B) {
	ring, kai, _ := fig7Keys()
	var buf [header.MaxSize]byte
	mk := func() int {
		p := packet.Packet{Src: 10, Dst: 20}
		feedback.StampIncr(ring.Current(), &p, 100, 7)
		h := header.Header{Ver: header.Version, Proto: packet.ProtoTCP, FB: p.FB}
		return header.Encode(buf[:], &h)
	}
	mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk()
		if _, _, err := header.BottleneckStampMon(buf[:], kai, 7, 10, 20, true, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7AccessRegularIdle measures validating and refreshing nop
// feedback on a regular packet outside attack times (paper: 781 ns).
func BenchmarkFig7AccessRegularIdle(b *testing.B) {
	ring, _, lookup := fig7Keys()
	var buf [header.MaxSize]byte
	p := packet.Packet{Src: 10, Dst: 20}
	feedback.StampNop(ring.Current(), &p, 100)
	h := header.Header{Ver: header.Version, Proto: packet.ProtoTCP, FB: p.FB}
	header.Encode(buf[:], &h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := header.AccessProcessRegular(buf[:], ring, lookup, 10, 20, 100, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7AccessRegularAttack measures the heaviest path: validate
// presented L-down (token_nop recomputation + Eq. 3) and restamp L-up
// with a fresh token_nop (paper: 1267 ns).
func BenchmarkFig7AccessRegularAttack(b *testing.B) {
	ring, kai, lookup := fig7Keys()
	var buf [header.MaxSize]byte
	mk := func() int {
		p := packet.Packet{Src: 10, Dst: 20}
		feedback.StampNop(ring.Current(), &p, 100)
		feedback.StampDecr(kai, &p, 7)
		h := header.Header{Ver: header.Version, Proto: packet.ProtoTCP, FB: p.FB}
		return header.Encode(buf[:], &h)
	}
	mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk()
		if _, _, err := header.AccessProcessRegular(buf[:], ring, lookup, 10, 20, 100, 4); err != nil {
			b.Fatal(err)
		}
	}
}
