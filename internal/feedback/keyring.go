package feedback

import (
	"math/rand/v2"

	"netfence/internal/cmac"
)

// KeyRing holds an access router's time-varying secret Ka (§3.2). The
// router stamps with the current key and validates against both the
// current and the previous key, so feedback stamped just before a rotation
// remains valid for the freshness window w.
type KeyRing struct {
	current *cmac.CMAC
	prev    *cmac.CMAC
	// epoch counts rotations. The access router's per-sender token
	// memos are tagged with the epoch they were filled under and emptied
	// when the ring has rotated since.
	epoch uint64

	// src is the router's own key-material stream, held by value: the
	// engine's KeySource for the router's origin, so the router draws
	// the same keys on whichever shard owns it.
	src rand.PCG
}

// NewKeyRing creates a key ring drawing its keys from src, the first
// one now.
func NewKeyRing(src rand.PCG) *KeyRing {
	r := &KeyRing{src: src}
	r.current = cmac.New(r.randomKey())
	r.prev = r.current
	return r
}

// NewKeyRingFromKey creates a key ring with a fixed initial key, for tests
// and benchmarks that need reproducible MACs.
func NewKeyRingFromKey(key cmac.Key) *KeyRing {
	c := cmac.New(key)
	return &KeyRing{current: c, prev: c}
}

func (r *KeyRing) randomKey() cmac.Key {
	var k cmac.Key
	for i := 0; i < 16; i += 8 {
		v := r.src.Uint64()
		for j := 0; j < 8; j++ {
			k[i+j] = byte(v >> (8 * j))
		}
	}
	return k
}

// Rotate replaces the current key with a fresh one, keeping the old key
// for validation. The caller drives rotation on a timer whose period must
// exceed the feedback expiration time w.
func (r *KeyRing) Rotate() {
	r.prev = r.current
	r.current = cmac.New(r.randomKey())
	r.epoch++
}

// Epoch returns the rotation count: the key-epoch identity a memoized
// token or verdict is only valid under.
func (r *KeyRing) Epoch() uint64 { return r.epoch }

// Current returns the stamping key.
func (r *KeyRing) Current() *cmac.CMAC { return r.current }

// Keys returns the current and previous validation keys; prev equals
// current before the first rotation. Hot paths iterate the pair directly
// instead of going through Check, whose predicate closure would allocate
// per packet.
func (r *KeyRing) Keys() (current, prev *cmac.CMAC) { return r.current, r.prev }

// Check runs a validation predicate against the current key, then the
// previous key, accepting if either succeeds — the rotation grace period.
func (r *KeyRing) Check(check func(*cmac.CMAC) bool) bool {
	if check(r.current) {
		return true
	}
	if r.prev != r.current && check(r.prev) {
		return true
	}
	return false
}
