// Package smallmap is a map that holds its first entry inline and only
// builds a hash table for the second. The simulator keeps a map per host
// (flow → agent, flow → SYN start), ten thousand hosts per replica, and
// nearly every one of them holds a single entry: inline, that entry
// costs no allocation and its lookup is one compare instead of a hash.
//
// Field order is part of the size. The key comes first and the flag
// right after it, so a 4-byte key and the flag share one word:
// Map[int32, *T] is 24 bytes and Map[uint32, iface] is 32, where the
// order key, val, used, rest would spend 32 and 40.
package smallmap

// Map is a map[K]V whose zero value is empty and ready to use. It is not
// safe for concurrent use.
type Map[K comparable, V any] struct {
	key  K
	used bool
	val  V
	rest map[K]V
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if m.used && m.key == k {
		return m.val, true
	}
	v, ok := m.rest[k]
	return v, ok
}

// Set stores v under k.
func (m *Map[K, V]) Set(k K, v V) {
	if m.used && m.key == k {
		m.val = v
		return
	}
	if _, ok := m.rest[k]; !ok && !m.used {
		m.key, m.val, m.used = k, v, true
		return
	}
	if m.rest == nil {
		m.rest = make(map[K]V)
	}
	m.rest[k] = v
}

// Delete removes k; deleting an absent key is a no-op.
func (m *Map[K, V]) Delete(k K) {
	if m.used && m.key == k {
		var zero V
		m.val, m.used = zero, false
		return
	}
	delete(m.rest, k)
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int {
	n := len(m.rest)
	if m.used {
		n++
	}
	return n
}
