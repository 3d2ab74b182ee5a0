// Package slab carves values from chunks, so an owner that makes many
// values of one type — the nodes of a topology, the packets of a pool,
// the events of a scheduler — pays one allocation per chunk instead of
// one per value, and the collector marks one object where it marked a
// chunk's worth.
//
// A chunk is kept alive by any value carved from it, so only values that
// live as long as their owner belong in a slab: state made and dropped
// mid-run keeps allocations of its own.
package slab

import "unsafe"

// DefaultBytes is the chunk budget of a Slab made without Sized: one
// 8 KB allocator class.
const DefaultBytes = 8192

// Header is the part of a chunk's budget the allocator keeps for
// itself: an object holding pointers and larger than 512 bytes carries
// an 8-byte header, so values that fill a class exactly would spill into
// the next one. ChunkLen leaves room for it.
const Header = 8

// Slab hands out zeroed *T values carved from chunks. A chunk holds as
// many values as fit in the slab's byte budget, so a budget equal to an
// allocator size class fills that class, and a T that grows shortens
// its chunk instead of pushing it into the next class. An owner that
// knows how many values it will carve reserves them (Reserve), so the
// last chunk holds exactly what is left instead of a tail nothing uses.
//
// Values are never recycled or moved: every New returns memory no other
// call returned. The zero value is ready to use with DefaultBytes. A Slab
// is not safe for concurrent use.
type Slab[T any] struct {
	// rest is the uncarved tail of the current chunk.
	rest []T
	// bytes is the chunk budget; 0 means DefaultBytes.
	bytes int
	// left counts the reserved values no chunk holds yet.
	left int
}

// Sized returns an empty slab whose chunks fill bytes.
func Sized[T any](bytes int) Slab[T] { return Slab[T]{bytes: bytes} }

// ChunkLen returns how many values a chunk holds: as many as fit in the
// budget beside the allocator's Header, and at least one.
func (s *Slab[T]) ChunkLen() int {
	b := s.bytes
	if b == 0 {
		b = DefaultBytes
	}
	var zero T
	if sz := int(unsafe.Sizeof(zero)); sz > 0 && (b-Header)/sz > 1 {
		return (b - Header) / sz
	}
	return 1
}

// New returns a zeroed value, carving a fresh chunk when the current one
// is used up: a whole chunk, or what is left of a reservation when that
// is less.
func (s *Slab[T]) New() *T {
	if len(s.rest) == 0 {
		n := s.ChunkLen()
		if s.left > 0 {
			n = min(n, s.left)
			s.left -= n
		}
		s.rest = make([]T, n)
	}
	p := &s.rest[0]
	s.rest = s.rest[1:]
	return p
}

// Reserve declares that the next n New calls are all the owner will
// carve for now: after the current chunk's rest, chunks are whole while
// a whole one's worth remains, and the last holds exactly the remainder.
// A later Reserve replaces what is left of an earlier one; once the
// reservation is carved, chunks are whole again.
func (s *Slab[T]) Reserve(n int) { s.left = max(n-len(s.rest), 0) }
