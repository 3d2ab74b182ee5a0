package feedback

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"netfence/internal/cmac"
	"netfence/internal/packet"
)

// A FuzzFeedbackValidate input, zero-padded to fvLen bytes: how often
// the ring rotates, which stamp (if any) is planted in the MAC field,
// then the packet's feedback fields and the validation clock.
const (
	fvRotations = iota // mod 4: rotations before validation
	fvPlant            // mod 4 the construction (raw, nop, incr, decr), /4 mod 3 the key (current, previous, retired)
	fvMode
	fvAction
	fvLink     = 4 // 4 bytes each from here
	fvTS       = 8
	fvMAC      = 12
	fvTokenNop = 16
	fvSrc      = 20
	fvDst      = 24
	fvNow      = 28
	fvW        = 32
	fvLen      = 36
)

const (
	plantRaw = iota
	plantNop
	plantIncr
	plantDecr
)

// fvKai is the fuzz target's Passport key table: a link whose ID is a
// multiple of four has an unknown AS, the others one of three pair keys.
func fvKai() KaiLookup {
	var keys [3]*cmac.CMAC
	for i := range keys {
		keys[i] = cmac.New(cmac.Key{byte(i + 1), 0xfe})
	}
	return func(link packet.LinkID) *cmac.CMAC {
		if link%4 == 0 {
			return nil
		}
		return keys[link%4-1]
	}
}

func fvInput(mode, action byte, link packet.LinkID, ts, now, w uint32, plant byte) []byte {
	b := make([]byte, fvLen)
	b[fvRotations], b[fvPlant], b[fvMode], b[fvAction] = 2, plant, mode, action
	binary.BigEndian.PutUint32(b[fvLink:], uint32(link))
	binary.BigEndian.PutUint32(b[fvTS:], ts)
	binary.BigEndian.PutUint32(b[fvSrc:], 10)
	binary.BigEndian.PutUint32(b[fvDst:], 20)
	binary.BigEndian.PutUint32(b[fvNow:], now)
	binary.BigEndian.PutUint32(b[fvW:], w)
	return b
}

// FuzzFeedbackValidate: an access router's feedback validation over
// hostile headers. Arbitrary bytes fill a packet's feedback fields —
// mode, action, link, timestamp, MAC and token_nop — and the clock and
// freshness window, and the ring has rotated zero to three times.
// Validate must never panic, and may accept only a fresh header whose
// MAC one of Eq. (1)-(3) produces for its fields under a key the ring
// still holds: NopMAC for nop feedback (ValidNop), IncrMAC for L-up and
// DecrMAC under the link's pair key over such a token_nop for L-down
// (ValidMon). Raw MAC bytes almost never match, so the input can plant
// the stamp of a construction under the current, the previous or a
// retired key: a planted stamp under a held key over consistent fields
// must be accepted when fresh.
func FuzzFeedbackValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add(fvInput(byte(packet.FBNop), byte(packet.ActIncr), 0, 100, 102, 4, plantNop))
	f.Add(fvInput(byte(packet.FBMon), byte(packet.ActIncr), 6, 100, 96, 4, plantIncr+4)) // previous key
	f.Add(fvInput(byte(packet.FBMon), byte(packet.ActDecr), 5, 100, 100, 0, plantDecr))  // zero window
	f.Add(fvInput(byte(packet.FBMon), byte(packet.ActDecr), 8, 100, 100, 4, plantDecr))  // unknown link AS
	f.Add(fvInput(byte(packet.FBNop), byte(packet.ActIncr), 0, 100, 100, 4, plantNop+8)) // retired key
	f.Add(fvInput(byte(packet.FBMon), byte(packet.ActIncr), 3, 0xffffffff, 0, 0xffffffff, plantIncr))
	f.Add(fvInput(7, 9, 3, 100, 100, 4, plantDecr)) // out-of-range mode and action
	f.Fuzz(func(t *testing.T, in []byte) {
		b := make([]byte, fvLen)
		copy(b, in)
		u32 := func(off int) uint32 { return binary.BigEndian.Uint32(b[off:]) }

		ring := NewKeyRing(*rand.NewPCG(3, 4))
		var retired []*cmac.CMAC
		for range b[fvRotations] % 4 {
			retired = append(retired, ring.Current())
			ring.Rotate()
		}
		cur, prev := ring.Keys()
		if len(retired) > 0 {
			retired = retired[:len(retired)-1] // the last one is prev
		}
		if len(retired) == 0 {
			retired = append(retired, cmac.New(cmac.Key{0xee}))
		}
		kai := fvKai()

		p := &packet.Packet{Src: packet.NodeID(u32(fvSrc)), Dst: packet.NodeID(u32(fvDst))}
		fb := &p.FB
		fb.Mode, fb.Action = packet.FBMode(b[fvMode]), packet.FBAction(b[fvAction])
		fb.Link, fb.TS = packet.LinkID(u32(fvLink)), u32(fvTS)
		copy(fb.MAC[:], b[fvMAC:fvMAC+4])
		copy(fb.TokenNop[:], b[fvTokenNop:fvTokenNop+4])
		now, w := u32(fvNow), u32(fvW)

		plant, held := b[fvPlant]%4, true
		var key *cmac.CMAC
		switch b[fvPlant] / 4 % 3 {
		case 0:
			key = cur
		case 1:
			key = prev
		default:
			key, held = retired[0], false
		}
		switch plant {
		case plantNop:
			fb.Mode = packet.FBNop
			fb.MAC = NopMAC(key, p.Src, p.Dst, fb.TS)
		case plantIncr:
			fb.Mode, fb.Action = packet.FBMon, packet.ActIncr
			fb.MAC = IncrMAC(key, p.Src, p.Dst, fb.TS, fb.Link)
		case plantDecr:
			fb.Mode, fb.Action = packet.FBMon, packet.ActDecr
			if k := kai(fb.Link); k != nil {
				fb.MAC = DecrMAC(k, p.Src, p.Dst, fb.TS, fb.Link, NopMAC(key, p.Src, p.Dst, fb.TS))
			}
		}
		before := *p

		got := Validate(ring, kai, p, now, w)
		if *p != before {
			t.Fatalf("Validate rewrote the packet: %+v, was %+v", p.FB, before.FB)
		}

		// What one of the ring's keys produces for these fields.
		produced := func(mac func(ka *cmac.CMAC) [4]byte) bool {
			return mac(cur) == fb.MAC || mac(prev) == fb.MAC
		}
		want := Invalid
		switch {
		case !Fresh(now, fb.TS, w):
		case fb.Mode == packet.FBNop:
			if produced(func(ka *cmac.CMAC) [4]byte { return NopMAC(ka, p.Src, p.Dst, fb.TS) }) {
				want = ValidNop
			}
		case fb.Action == packet.ActIncr:
			if produced(func(ka *cmac.CMAC) [4]byte { return IncrMAC(ka, p.Src, p.Dst, fb.TS, fb.Link) }) {
				want = ValidMon
			}
		default:
			if k := kai(fb.Link); k != nil && produced(func(ka *cmac.CMAC) [4]byte {
				return DecrMAC(k, p.Src, p.Dst, fb.TS, fb.Link, NopMAC(ka, p.Src, p.Dst, fb.TS))
			}) {
				want = ValidMon
			}
		}
		if got != want {
			t.Fatalf("Validate = %d, want %d for %+v (now %d, w %d)", got, want, *fb, now, w)
		}
		planted := plant != plantRaw && (plant != plantDecr || kai(fb.Link) != nil)
		if planted && held && Fresh(now, fb.TS, w) && got == Invalid {
			t.Fatalf("a fresh stamp of construction %d under a held key was refused: %+v", plant, *fb)
		}
	})
}
