// Package header implements the NetFence shim header wire format of
// Figure 6 of the paper, sitting between IP and the upper-layer protocol.
//
// Layout (big endian):
//
//	byte 0   VER(4) | TYPE(4)
//	byte 1   PROTO
//	byte 2   PRIORITY
//	byte 3   FLAGS
//	byte 4-7 TIMESTAMP (seconds)
//	-- forward feedback --
//	mon:     LINK-ID(4) [TOKEN-NOP(4) if action=incr] MAC(4)
//	nop:     MAC(4)
//	-- returned feedback (optional) --
//	         MAC-return(4) [LINK-ID-return(4) if returned feedback is mon]
//
// TYPE bits: 0x8 request packet, 0x4 mon forward feedback, 0x1 returned
// feedback present. FLAGS bits: 0x80 forward action is decr, 0x40 returned
// action is decr, 0x04 LINK-ID-return present (returned feedback is mon),
// 0x03 the low two bits of the returned feedback's timestamp.
//
// Only the last two bits of the returned timestamp travel on the wire; the
// access router reconstructs the full value assuming it is less than four
// seconds old (§6.1). Resulting sizes: 12 B (nop, no return), 16 B (nop +
// returned nop), 20 B (mon incr, no return; or the paper's quoted common
// case), 28 B worst case (mon + returned mon), matching §6.1.
package header

import (
	"encoding/binary"
	"errors"

	"netfence/internal/packet"
)

// Version is the only header version this implementation understands.
const Version = 1

// TYPE nibble bits.
const (
	typeRequest = 0x8
	typeMon     = 0x4
	typeRet     = 0x1
)

// FLAGS bits.
const (
	flagDecr    = 0x80
	flagRetDecr = 0x40
	flagRetLink = 0x04
	flagRetTS   = 0x03
)

// MaxSize is the largest possible encoded header.
const MaxSize = 28

// Header is the decoded form of a NetFence shim header.
type Header struct {
	Ver     uint8
	Request bool
	Proto   packet.Proto
	Prio    uint8
	FB      packet.Feedback
	HasRet  bool
	Ret     packet.Returned
}

// Errors returned by Decode.
var (
	ErrShort   = errors.New("header: buffer too short")
	ErrVersion = errors.New("header: unsupported version")
)

// EncodedSize returns the number of bytes Encode will produce for h.
func EncodedSize(h *Header) int {
	n := 8 + 4 // common header + forward MAC
	if h.FB.Mode == packet.FBMon {
		n += 4 // LINK-ID
		if h.FB.Action == packet.ActIncr {
			n += 4 // TOKEN-NOP
		}
	}
	if h.HasRet {
		n += 4 // MAC-return
		if h.Ret.Mode == packet.FBMon {
			n += 4 // LINK-ID-return
		}
	}
	return n
}

// Encode serializes h into dst, which must have room for EncodedSize(h)
// bytes, and returns the number of bytes written.
func Encode(dst []byte, h *Header) int {
	t := byte(0)
	if h.Request {
		t |= typeRequest
	}
	if h.FB.Mode == packet.FBMon {
		t |= typeMon
	}
	if h.HasRet {
		t |= typeRet
	}
	dst[0] = h.Ver<<4 | t
	dst[1] = byte(h.Proto)
	dst[2] = h.Prio
	flags := byte(0)
	if h.FB.Mode == packet.FBMon && h.FB.Action == packet.ActDecr {
		flags |= flagDecr
	}
	if h.HasRet {
		if h.Ret.Mode == packet.FBMon && h.Ret.Action == packet.ActDecr {
			flags |= flagRetDecr
		}
		if h.Ret.Mode == packet.FBMon {
			flags |= flagRetLink
		}
		flags |= byte(h.Ret.TS) & flagRetTS
	}
	dst[3] = flags
	binary.BigEndian.PutUint32(dst[4:], h.FB.TS)
	n := 8
	if h.FB.Mode == packet.FBMon {
		binary.BigEndian.PutUint32(dst[n:], uint32(h.FB.Link))
		n += 4
		if h.FB.Action == packet.ActIncr {
			copy(dst[n:], h.FB.TokenNop[:])
			n += 4
		}
	}
	copy(dst[n:], h.FB.MAC[:])
	n += 4
	if h.HasRet {
		copy(dst[n:], h.Ret.MAC[:])
		n += 4
		if h.Ret.Mode == packet.FBMon {
			binary.BigEndian.PutUint32(dst[n:], uint32(h.Ret.Link))
			n += 4
		}
	}
	return n
}

// ReconstructTS rebuilds a full returned-feedback timestamp from its low
// two bits, assuming it is less than four seconds older than now (§6.1).
func ReconstructTS(yy uint8, nowSec uint32) uint32 {
	ts := nowSec&^3 | uint32(yy&3)
	if ts > nowSec {
		ts -= 4
	}
	return ts
}

// Decode parses a header from src. nowSec is the decoder's local clock,
// needed to reconstruct the truncated returned-feedback timestamp. It
// returns the header and the number of bytes consumed.
func Decode(src []byte, nowSec uint32) (Header, int, error) {
	var h Header
	if len(src) < 12 {
		return h, 0, ErrShort
	}
	h.Ver = src[0] >> 4
	if h.Ver != Version {
		return h, 0, ErrVersion
	}
	t := src[0] & 0xf
	h.Request = t&typeRequest != 0
	h.Proto = packet.Proto(src[1])
	h.Prio = src[2]
	flags := src[3]
	h.FB.TS = binary.BigEndian.Uint32(src[4:])
	n := 8
	if t&typeMon != 0 {
		h.FB.Mode = packet.FBMon
		if flags&flagDecr != 0 {
			h.FB.Action = packet.ActDecr
		}
		if len(src) < n+4 {
			return h, 0, ErrShort
		}
		h.FB.Link = packet.LinkID(binary.BigEndian.Uint32(src[n:]))
		n += 4
		if h.FB.Action == packet.ActIncr {
			if len(src) < n+4 {
				return h, 0, ErrShort
			}
			copy(h.FB.TokenNop[:], src[n:])
			n += 4
		}
	}
	if len(src) < n+4 {
		return h, 0, ErrShort
	}
	copy(h.FB.MAC[:], src[n:])
	n += 4
	if t&typeRet != 0 {
		h.HasRet = true
		h.Ret.Present = true
		if len(src) < n+4 {
			return h, 0, ErrShort
		}
		copy(h.Ret.MAC[:], src[n:])
		n += 4
		if flags&flagRetLink != 0 {
			h.Ret.Mode = packet.FBMon
			// Only mon feedback has an action; Encode writes the flag
			// for nothing else.
			if flags&flagRetDecr != 0 {
				h.Ret.Action = packet.ActDecr
			}
			if len(src) < n+4 {
				return h, 0, ErrShort
			}
			h.Ret.Link = packet.LinkID(binary.BigEndian.Uint32(src[n:]))
			n += 4
		}
		h.Ret.TS = ReconstructTS(flags&flagRetTS, nowSec)
	}
	return h, n, nil
}

// FromPacket extracts the header fields of a simulated packet.
func FromPacket(p *packet.Packet) Header {
	return Header{
		Ver:     Version,
		Request: p.Kind == packet.KindRequest,
		Proto:   p.Proto,
		Prio:    p.Prio,
		FB:      p.FB,
		HasRet:  p.Ret.Present,
		Ret:     p.Ret,
	}
}

// Apply writes the header fields back into a simulated packet.
func (h *Header) Apply(p *packet.Packet) {
	if h.Request {
		p.Kind = packet.KindRequest
	} else {
		p.Kind = packet.KindRegular
	}
	p.Proto = h.Proto
	p.Prio = h.Prio
	p.FB = h.FB
	p.Ret = h.Ret
	p.Ret.Present = h.HasRet
}
