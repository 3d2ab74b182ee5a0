// Package feedback implements NetFence's secure congestion policing
// feedback (§4.4 of the paper): the unforgeable nop, L-up (incr) and
// L-down (decr) tokens that bottleneck routers stamp into packets and
// access routers validate.
//
// Three MAC constructions are used, mirroring Eq. (1)-(3):
//
//	token_nop  = MAC_Ka (src, dst, ts, link_null, nop)
//	token_Lup  = MAC_Ka (src, dst, ts, L, mon, incr)          (+ token_nop field)
//	token_Ldown= MAC_Kai(src, dst, ts, L, mon, decr, token_nop)
//
// Ka is a periodically rotated secret known only to the sender's access
// router; Kai is the pairwise key shared between the bottleneck's AS and
// the sender's AS (established by Passport's in-band key exchange).
package feedback

import (
	"encoding/binary"

	"netfence/internal/cmac"
	"netfence/internal/packet"
)

// macInput builds the canonical byte string MACed by Eq. (1)-(3). A fixed
// layout (rather than ad-hoc concatenation) prevents ambiguity attacks
// between the three constructions: the mode/action bytes always occupy the
// same offsets.
func macInput(buf *[24]byte, src, dst packet.NodeID, ts uint32, link packet.LinkID, mode packet.FBMode, action packet.FBAction, tokennop [4]byte) []byte {
	binary.BigEndian.PutUint32(buf[0:], uint32(src))
	binary.BigEndian.PutUint32(buf[4:], uint32(dst))
	binary.BigEndian.PutUint32(buf[8:], ts)
	binary.BigEndian.PutUint32(buf[12:], uint32(link))
	buf[16] = byte(mode)
	buf[17] = byte(action)
	copy(buf[18:22], tokennop[:])
	// Bytes 22-23 are zero padding; CMAC handles the full 24-byte block.
	buf[22], buf[23] = 0, 0
	return buf[:]
}

// NopMAC computes token_nop (Eq. 1).
func NopMAC(ka *cmac.CMAC, src, dst packet.NodeID, ts uint32) [4]byte {
	var buf [24]byte
	return ka.Sum32(macInput(&buf, src, dst, ts, 0, packet.FBNop, packet.ActIncr, [4]byte{}))
}

// IncrMAC computes token_Lup (Eq. 2).
func IncrMAC(ka *cmac.CMAC, src, dst packet.NodeID, ts uint32, link packet.LinkID) [4]byte {
	var buf [24]byte
	return ka.Sum32(macInput(&buf, src, dst, ts, link, packet.FBMon, packet.ActIncr, [4]byte{}))
}

// DecrMAC computes token_Ldown (Eq. 3). It covers token_nop so that a
// malicious downstream router cannot overwrite the feedback: it never saw
// token_nop, which the stamping router erases from the packet.
func DecrMAC(kai *cmac.CMAC, src, dst packet.NodeID, ts uint32, link packet.LinkID, tokennop [4]byte) [4]byte {
	var buf [24]byte
	return kai.Sum32(macInput(&buf, src, dst, ts, link, packet.FBMon, packet.ActDecr, tokennop))
}

// Nop is the nop feedback an access router stamps: the header fields
// around token_nop (Eq. 1).
func Nop(ts uint32, tokenNop [4]byte) packet.Feedback {
	return packet.Feedback{
		Mode:   packet.FBNop,
		Link:   0,
		Action: packet.ActIncr,
		TS:     ts,
		MAC:    tokenNop,
	}
}

// Incr is the L-up feedback an access router stamps for link: token_Lup
// (Eq. 2) in the MAC field, and token_nop beside it so a downstream
// bottleneck can stamp L-down.
func Incr(ts uint32, link packet.LinkID, tokenLup, tokenNop [4]byte) packet.Feedback {
	return packet.Feedback{
		Mode:     packet.FBMon,
		Link:     link,
		Action:   packet.ActIncr,
		TS:       ts,
		MAC:      tokenLup,
		TokenNop: tokenNop,
	}
}

// StampNop writes fresh nop feedback into p (access router, §4.2/§4.3.3).
func StampNop(ka *cmac.CMAC, p *packet.Packet, nowSec uint32) {
	p.FB = Nop(nowSec, NopMAC(ka, p.Src, p.Dst, nowSec))
}

// StampIncr writes fresh L-up feedback for link into p (access router,
// §4.3.3: presented mon feedback is reset to L-up on forwarding). The
// token_nop field is refilled so a downstream bottleneck can stamp L-down.
func StampIncr(ka *cmac.CMAC, p *packet.Packet, nowSec uint32, link packet.LinkID) {
	p.FB = Incr(nowSec, link, IncrMAC(ka, p.Src, p.Dst, nowSec, link), NopMAC(ka, p.Src, p.Dst, nowSec))
}

// StampDecr overwrites p's feedback with L-down for link (bottleneck
// router, §4.3.2). The token_nop needed by Eq. 3 is taken from the packet:
// the MAC field itself if the packet carries nop feedback, the TokenNop
// field if it carries L-up. The field is erased afterwards so downstream
// routers cannot forge further feedback. The ts field is left untouched;
// only access routers set timestamps.
func StampDecr(kai *cmac.CMAC, p *packet.Packet, link packet.LinkID) {
	var tokennop [4]byte
	if p.FB.Mode == packet.FBNop {
		tokennop = p.FB.MAC
	} else {
		tokennop = p.FB.TokenNop
	}
	p.FB = packet.Feedback{
		Mode:     packet.FBMon,
		Link:     link,
		Action:   packet.ActDecr,
		TS:       p.FB.TS,
		MAC:      DecrMAC(kai, p.Src, p.Dst, p.FB.TS, link, tokennop),
		TokenNop: [4]byte{},
	}
}

// MultiMAC computes one step of the Appendix B.1 chained token: the MAC
// over the connection metadata, one bottleneck's feedback, and the
// previous token value (Eq. 5 of the appendix). The chain starts from the
// access router's token (Eq. 4, computed by NopMAC) and covers every
// bottleneck's feedback in path order, so no downstream router can tamper
// with an upstream link's entry.
func MultiMAC(k *cmac.CMAC, src, dst packet.NodeID, ts uint32, link packet.LinkID, action packet.FBAction, prev [4]byte) [4]byte {
	var buf [24]byte
	return k.Sum32(macInput(&buf, src, dst, ts, link, packet.FBMon, action, prev))
}

// Verdict is the result of validating presented feedback.
type Verdict uint8

// Validation outcomes.
const (
	// Invalid feedback demotes the packet to the request channel (§4.4).
	Invalid Verdict = iota
	// ValidNop lets the packet pass without rate limiting.
	ValidNop
	// ValidMon subjects the packet to the rate limiter for FB.Link.
	ValidMon
)

// KaiLookup resolves the pairwise key shared with the AS owning a link
// (the paper's IP-to-AS mapping plus Passport key table). It returns nil
// when the link's AS is unknown, which invalidates the feedback.
type KaiLookup func(link packet.LinkID) *cmac.CMAC

// Fresh reports whether a timestamp lies within the freshness window w of
// the clock: |now - ts| <= w seconds (§4.4).
func Fresh(nowSec, ts, wSec uint32) bool {
	diff := int64(nowSec) - int64(ts)
	return diff <= int64(wSec) && diff >= -int64(wSec)
}

// Validate checks the presented feedback in p against the access router's
// key ring and the AS-pairwise keys, applying the freshness window w
// (|now - ts| > w seconds invalidates, §4.4). It must be called before the
// access router rewrites the feedback.
func Validate(ring *KeyRing, kai KaiLookup, p *packet.Packet, nowSec uint32, wSec uint32) Verdict {
	fb := &p.FB
	if !Fresh(nowSec, fb.TS, wSec) {
		return Invalid
	}
	cur, prev := ring.Keys()
	// Check against the current key, then (if rotated) the previous one —
	// KeyRing.Check's contract, unrolled so the per-packet hot path does
	// not allocate a predicate closure.
	switch {
	case fb.Mode == packet.FBNop:
		if NopMAC(cur, p.Src, p.Dst, fb.TS) == fb.MAC {
			return ValidNop
		}
		if prev != cur && NopMAC(prev, p.Src, p.Dst, fb.TS) == fb.MAC {
			return ValidNop
		}
	case fb.Action == packet.ActIncr:
		if IncrMAC(cur, p.Src, p.Dst, fb.TS, fb.Link) == fb.MAC {
			return ValidMon
		}
		if prev != cur && IncrMAC(prev, p.Src, p.Dst, fb.TS, fb.Link) == fb.MAC {
			return ValidMon
		}
	default: // mon + decr
		key := kai(fb.Link)
		if key == nil {
			return Invalid
		}
		if DecrMAC(key, p.Src, p.Dst, fb.TS, fb.Link, NopMAC(cur, p.Src, p.Dst, fb.TS)) == fb.MAC {
			return ValidMon
		}
		if prev != cur && DecrMAC(key, p.Src, p.Dst, fb.TS, fb.Link, NopMAC(prev, p.Src, p.Dst, fb.TS)) == fb.MAC {
			return ValidMon
		}
	}
	return Invalid
}

// ToReturned copies the network-stamped feedback of a received packet into
// a Returned value for handing back to the sender (receiver shim, §3.1
// step 4).
func ToReturned(fb packet.Feedback) packet.Returned {
	return packet.Returned{
		Present: true,
		Mode:    fb.Mode,
		Link:    fb.Link,
		Action:  fb.Action,
		TS:      fb.TS,
		MAC:     fb.MAC,
	}
}

// ToPresented converts returned feedback into the feedback the sender
// presents in its next packets' forward header.
func ToPresented(r packet.Returned) packet.Feedback {
	return packet.Feedback{
		Mode:   r.Mode,
		Link:   r.Link,
		Action: r.Action,
		TS:     r.TS,
		MAC:    r.MAC,
	}
}
