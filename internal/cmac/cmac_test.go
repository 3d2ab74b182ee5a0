package cmac

import (
	"bytes"
	"encoding/hex"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// TestRFC4493Vectors checks the four official AES-128-CMAC test vectors.
func TestRFC4493Vectors(t *testing.T) {
	keyBytes := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	var key Key
	copy(key[:], keyBytes)
	msgFull := mustHex(t, "6bc1bee22e409f96e93d7e117393172a"+
		"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+
		"f69f2445df4f9b17ad2b417be66c3710")
	cases := []struct {
		name string
		n    int
		want string
	}{
		{"len0", 0, "bb1d6929e95937287fa37d129b756746"},
		{"len16", 16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{"len40", 40, "dfa66747de9ae63030ca32611497c827"},
		{"len64", 64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	c := New(key)
	for _, tc := range cases {
		got := c.Sum(msgFull[:tc.n])
		want := mustHex(t, tc.want)
		if !bytes.Equal(got[:], want) {
			t.Errorf("%s: got %x, want %x", tc.name, got, want)
		}
	}
}

func TestSubkeysRFC4493(t *testing.T) {
	keyBytes := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	var key Key
	copy(key[:], keyBytes)
	c := New(key)
	if got := hex.EncodeToString(c.k1[:]); got != "fbeed618357133667c85e08f7236a8de" {
		t.Errorf("K1 = %s", got)
	}
	if got := hex.EncodeToString(c.k2[:]); got != "f7ddac306ae266ccf90bc11ee46d513b" {
		t.Errorf("K2 = %s", got)
	}
}

func TestVerify(t *testing.T) {
	var key Key
	key[0] = 7
	c := New(key)
	msg := []byte("netfence congestion policing feedback")
	tag := c.Sum(msg)
	if !c.Verify(msg, tag[:]) {
		t.Fatal("valid full tag rejected")
	}
	if !c.Verify(msg, tag[:4]) {
		t.Fatal("valid truncated tag rejected")
	}
	bad := tag
	bad[0] ^= 1
	if c.Verify(msg, bad[:]) {
		t.Fatal("tampered tag accepted")
	}
	long := append(tag[:], 0)
	if c.Verify(msg, long) {
		t.Fatal("overlong tag accepted")
	}
}

func TestSum32MatchesPrefix(t *testing.T) {
	var key Key
	c := New(key)
	msg := []byte{1, 2, 3, 4, 5}
	full := c.Sum(msg)
	short := c.Sum32(msg)
	if !bytes.Equal(full[:4], short[:]) {
		t.Fatalf("Sum32 %x != prefix of Sum %x", short, full[:4])
	}
}

func TestOneShotSum(t *testing.T) {
	var key Key
	key[5] = 99
	msg := []byte("hello")
	a := Sum(key, msg)
	b := New(key).Sum(msg)
	if a != b {
		t.Fatal("one-shot Sum differs from CMAC.Sum")
	}
}

// TestBitFlipProperty: flipping any single bit of the message changes the
// tag (with overwhelming probability; equality would be a bug for CMAC on
// short messages).
func TestBitFlipProperty(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		var key Key
		for i := range key {
			key[i] = byte(rng.Uint32())
		}
		msg := make([]byte, int(n)+1)
		for i := range msg {
			msg[i] = byte(rng.Uint32())
		}
		c := New(key)
		orig := c.Sum(msg)
		i := rng.IntN(len(msg))
		bit := byte(1) << rng.IntN(8)
		msg[i] ^= bit
		flipped := c.Sum(msg)
		return orig != flipped
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKeySeparationProperty: tags under different keys differ.
func TestKeySeparationProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 4))
		var k1, k2 Key
		for i := range k1 {
			k1[i] = byte(rng.Uint32())
			k2[i] = byte(rng.Uint32())
		}
		if k1 == k2 {
			return true
		}
		msg := []byte("identical message")
		return Sum(k1, msg) != Sum(k2, msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism: Sum is a pure function.
func TestDeterminism(t *testing.T) {
	prop := func(key [16]byte, msg []byte) bool {
		c := New(key)
		return c.Sum(msg) == c.Sum(msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialReuse: repeated Sum calls on one instance are
// independent — the struct-resident chaining scratch is fully reset per
// call, so interleaving messages cannot contaminate tags.
func TestSequentialReuse(t *testing.T) {
	var key Key
	c := New(key)
	a := []byte("first message")
	b := []byte("a second, longer message spanning multiple AES blocks")
	wantA, wantB := c.Sum(a), c.Sum(b)
	for i := 0; i < 4; i++ {
		if got := c.Sum(a); got != wantA {
			t.Fatal("reused Sum produced a different tag for a")
		}
		if got := c.Sum(b); got != wantB {
			t.Fatal("reused Sum produced a different tag for b")
		}
	}
}

// sumBytewise is the RFC 4493 algorithm written one byte at a time — the
// kernel Sum had before it chained through words, kept as the reference
// the word-wise one must reproduce.
func sumBytewise(c *CMAC, msg []byte) [BlockSize]byte {
	var x, y [BlockSize]byte
	n := len(msg)
	for n > BlockSize {
		for i := 0; i < BlockSize; i++ {
			y[i] = x[i] ^ msg[i]
		}
		c.block.Encrypt(x[:], y[:])
		msg = msg[BlockSize:]
		n -= BlockSize
	}
	var last [BlockSize]byte
	if n == BlockSize {
		for i := 0; i < BlockSize; i++ {
			last[i] = msg[i] ^ c.k1[i]
		}
	} else {
		copy(last[:], msg)
		last[n] = 0x80
		for i := 0; i < BlockSize; i++ {
			last[i] ^= c.k2[i]
		}
	}
	for i := 0; i < BlockSize; i++ {
		y[i] = x[i] ^ last[i]
	}
	c.block.Encrypt(x[:], y[:])
	return x
}

// TestSumMatchesBytewiseReference: every length across five block
// boundaries on one instance (so each call finds the scratch the last
// one left), then 10,000 random (key, message) pairs.
func TestSumMatchesBytewiseReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(4493, 1))
	fill := func(b []byte) {
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
	}
	var key Key
	fill(key[:])
	c := New(key)
	msg := make([]byte, 80)
	fill(msg)
	for n := 0; n <= len(msg); n++ {
		if got, want := c.Sum(msg[:n]), sumBytewise(c, msg[:n]); got != want {
			t.Fatalf("len %d: got %x, want %x", n, got, want)
		}
	}
	for i := 0; i < 10_000; i++ {
		fill(key[:])
		c = New(key)
		m := msg[:rng.IntN(len(msg)+1)]
		fill(m)
		if got, want := c.Sum(m), sumBytewise(c, m); got != want {
			t.Fatalf("pair %d (len %d): got %x, want %x", i, len(m), got, want)
		}
	}
}

// TestSumZeroAlloc guards the simulator's dominant per-packet MAC path:
// Sum must not allocate. (The scratch lives on the struct because stack
// buffers passed through the cipher.Block interface escape.)
func TestSumZeroAlloc(t *testing.T) {
	var key Key
	c := New(key)
	msg := make([]byte, 24)
	if avg := testing.AllocsPerRun(100, func() { _ = c.Sum(msg) }); avg != 0 {
		t.Fatalf("CMAC.Sum allocates %.2f objects per call, want 0", avg)
	}
}

func BenchmarkCMAC16B(b *testing.B) { benchCMAC(b, 16) }
func BenchmarkCMAC64B(b *testing.B) { benchCMAC(b, 64) }

func benchCMAC(b *testing.B, n int) {
	var key Key
	c := New(key)
	msg := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Sum(msg)
	}
}

// TestVerifyBatch32 checks the batch verify against per-message Sum32
// and counts matches, with corrupted tags rejected.
func TestVerifyBatch32(t *testing.T) {
	var key Key
	key[15] = 0xa5
	c := New(key)
	msgs := make([][]byte, 10)
	tags := make([][4]byte, 10)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i * 3), byte(i * 7)}
		tags[i] = c.Sum32(msgs[i])
	}
	// Corrupt two tags.
	tags[2][0] ^= 1
	tags[7][3] ^= 0x80
	ok := make([]bool, 10)
	if n := c.VerifyBatch32(msgs, tags, ok); n != 8 {
		t.Fatalf("VerifyBatch32 counted %d valid, want 8", n)
	}
	for i, o := range ok {
		want := i != 2 && i != 7
		if o != want {
			t.Fatalf("ok[%d] = %v, want %v", i, o, want)
		}
	}
}

// TestVerifyBatch32ZeroAlloc: the batch path chains through the
// struct-resident scratch like Sum, so it must not allocate either.
func TestVerifyBatch32ZeroAlloc(t *testing.T) {
	var key Key
	c := New(key)
	msgs := [][]byte{make([]byte, 24), make([]byte, 24)}
	tags := [][4]byte{c.Sum32(msgs[0]), c.Sum32(msgs[1])}
	ok := make([]bool, 2)
	if avg := testing.AllocsPerRun(100, func() { c.VerifyBatch32(msgs, tags, ok) }); avg != 0 {
		t.Fatalf("VerifyBatch32 allocates %.2f objects per call, want 0", avg)
	}
}
