package header

import "testing"

// FuzzHeaderDecode holds Decode to its contract over arbitrary bytes and
// clocks: it never panics, never reports consuming more than it was
// given, and whatever it accepts re-encodes (EncodedSize bytes) into a
// buffer that decodes to the same Header, consuming all of it. The
// corpus is TestRoundTrip's headers, TestDecodeErrors' inputs and the
// first input it failed on.
func FuzzHeaderDecode(f *testing.F) {
	for _, h := range sampleHeaders() {
		var buf [MaxSize]byte
		n := Encode(buf[:], &h)
		f.Add(buf[:n], uint32(1234))
	}
	var buf [MaxSize]byte
	h := sampleHeaders()[2]
	Encode(buf[:], &h)
	f.Add(make([]byte, 4), uint32(0))
	f.Add(append([]byte(nil), buf[:10]...), uint32(0))
	buf[0] = 0xF0
	f.Add(buf[:], uint32(0))
	// Returned nop feedback with the returned-decr flag set: only mon
	// feedback has an action, so Decode ignores the flag.
	f.Add([]byte{0x15, 0x30, 0x30, 0xC2, 0x30, 0x30, 0x30, 0x30, 0, 0, 0, 7, 0, 0, 0, 0, 1, 2, 3, 4}, uint32(1286))

	f.Fuzz(func(t *testing.T, src []byte, nowSec uint32) {
		h, n, err := Decode(src, nowSec)
		if n < 0 || n > len(src) {
			t.Fatalf("Decode of %d bytes consumed %d (err %v)", len(src), n, err)
		}
		if err != nil {
			return
		}
		var out [MaxSize]byte
		m := Encode(out[:], &h)
		if m != EncodedSize(&h) || m != n {
			t.Fatalf("Decode consumed %d, Encode wrote %d, EncodedSize %d for %+v", n, m, EncodedSize(&h), h)
		}
		again, k, err := Decode(out[:m], nowSec)
		if err != nil || k != m {
			t.Fatalf("re-encoded % x: Decode = %d, %v", out[:m], k, err)
		}
		if again != h {
			t.Fatalf("decode(encode(decode(% x))) = %+v, want %+v", src, again, h)
		}
	})
}
