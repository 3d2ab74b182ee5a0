// Package smallmap is a map that holds its first entry inline and only
// builds a hash table for the second. The simulator keeps several maps
// per host (flow → agent, peer → shim state, flow → SYN start), ten
// thousand hosts per replica, and nearly every one of them holds a
// single entry: inline, that entry costs no allocation and its lookup is
// one compare instead of a hash.
package smallmap

// Map is a map[K]V whose zero value is empty and ready to use. It is not
// safe for concurrent use.
type Map[K comparable, V any] struct {
	key  K
	val  V
	used bool
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
