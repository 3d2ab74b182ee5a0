// Package cmac implements the AES-CMAC message authentication code defined
// in RFC 4493, using only the standard library's crypto/aes.
//
// NetFence protects its congestion policing feedback with a MAC computed by
// symmetric-key hardware on routers (the paper cites line-rate AES support).
// CMAC is the standard way to turn AES into a MAC and is what an actual
// deployment would use; the 4-byte truncation applied by the NetFence header
// is performed by callers, not here.
package cmac

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// Key is a 128-bit AES key.
type Key = [16]byte

// CMAC computes AES-CMAC tags under a fixed key. It precomputes the two
// subkeys K1 and K2 at construction, so per-message cost is one AES pass.
//
// A CMAC value is NOT safe for concurrent use: Sum chains the cipher
// through scratch blocks held on the struct, because stack scratch
// passed to the cipher.Block interface escapes to the heap and the
// per-packet MAC was the simulator's dominant allocation. Every engine
// shard builds its own key material, so instances are single-goroutine
// by construction; callers that share one across goroutines must
// serialize.
type CMAC struct {
	block  cipher.Block
	k1, k2 [BlockSize]byte
	// y, x are the cipher's input and output blocks. Struct-resident so
	// Sum performs zero heap allocations per call.
	x, y [BlockSize]byte
}

// New returns a CMAC for the given 128-bit key.
func New(key Key) *CMAC {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes, which the Key
		// type makes impossible.
		panic("cmac: " + err.Error())
	}
	c := &CMAC{block: block}
	var l [BlockSize]byte
	block.Encrypt(l[:], l[:])
	shiftLeft(&c.k1, &l)
	if l[0]&0x80 != 0 {
		c.k1[BlockSize-1] ^= 0x87
	}
	shiftLeft(&c.k2, &c.k1)
	if c.k1[0]&0x80 != 0 {
		c.k2[BlockSize-1] ^= 0x87
	}
	return c
}

// shiftLeft sets dst to src << 1.
func shiftLeft(dst, src *[BlockSize]byte) {
	var carry byte
	for i := BlockSize - 1; i >= 0; i-- {
		dst[i] = src[i]<<1 | carry
		carry = src[i] >> 7
	}
}

// Sum computes the 16-byte AES-CMAC tag of msg. The CBC chain is carried
// in two 64-bit words: XOR is byte-wise, so any fixed byte order gives
// RFC 4493's output, and little-endian loads are plain moves on the
// machines this runs on.
func (c *CMAC) Sum(msg []byte) [BlockSize]byte {
	var x0, x1 uint64
	// Process all complete blocks except the last.
	for len(msg) > BlockSize {
		x0, x1 = c.encrypt(x0^binary.LittleEndian.Uint64(msg), x1^binary.LittleEndian.Uint64(msg[8:]))
		msg = msg[BlockSize:]
	}
	sub := &c.k1
	if len(msg) < BlockSize {
		// Incomplete last block: pad with 10* and switch to K2.
		c.y = [BlockSize]byte{}
		c.y[copy(c.y[:], msg)] = 0x80
		msg, sub = c.y[:], &c.k2
	}
	x0 ^= binary.LittleEndian.Uint64(msg) ^ binary.LittleEndian.Uint64(sub[:])
	x1 ^= binary.LittleEndian.Uint64(msg[8:]) ^ binary.LittleEndian.Uint64(sub[8:])
	c.encrypt(x0, x1)
	return c.x
}

// encrypt runs one AES pass over the block held in (y0, y1), leaving the
// ciphertext in c.x and returning it as words.
func (c *CMAC) encrypt(y0, y1 uint64) (x0, x1 uint64) {
	binary.LittleEndian.PutUint64(c.y[:], y0)
	binary.LittleEndian.PutUint64(c.y[8:], y1)
	c.block.Encrypt(c.x[:], c.y[:])
	return binary.LittleEndian.Uint64(c.x[:]), binary.LittleEndian.Uint64(c.x[8:])
}

// Sum32 computes the CMAC tag truncated to its first 4 bytes, the width of
// the MAC field in the NetFence header (Figure 6 of the paper).
func (c *CMAC) Sum32(msg []byte) [4]byte {
	full := c.Sum(msg)
	return [4]byte{full[0], full[1], full[2], full[3]}
}

// VerifyBatch32 verifies a batch of messages against their truncated
// 4-byte tags under this instance's key, writing per-message results
// into ok and returning how many verified. msgs, tags and ok must have
// equal length. Each message chains through the instance's
// struct-resident scratch exactly like Sum, so the whole batch performs
// zero heap allocations; like every other method it must not run
// concurrently on one instance — batch-parallel callers make one
// instance per worker with New.
func (c *CMAC) VerifyBatch32(msgs [][]byte, tags [][4]byte, ok []bool) int {
	n := 0
	for i, msg := range msgs {
		got := c.Sum32(msg)
		ok[i] = got == tags[i]
		if ok[i] {
			n++
		}
	}
	return n
}

// Verify reports whether tag is the CMAC of msg, in constant time.
func (c *CMAC) Verify(msg []byte, tag []byte) bool {
	full := c.Sum(msg)
	if len(tag) > BlockSize {
		return false
	}
	return subtle.ConstantTimeCompare(full[:len(tag)], tag) == 1
}

// Sum is a convenience helper computing a one-shot AES-CMAC.
func Sum(key Key, msg []byte) [BlockSize]byte { return New(key).Sum(msg) }
