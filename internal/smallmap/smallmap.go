// Package smallmap is a map that holds its first entry inline and only
// builds a hash table for the second. The simulator keeps a map per host
// (flow → agent, flow → SYN start), ten thousand hosts per shard, and
// nearly every one of them holds a single entry: inline, that entry
// costs no allocation and its lookup is one compare instead of a hash.
//
// The inline slot is empty when its key is the zero value, so it needs
// no flag of its own (a zero key lives in the table): Map[uint64, iface]
// is 32 bytes where a flag would pad it to 40.
package smallmap

// Map is a map[K]V whose zero value is empty and ready to use. It is not
// safe for concurrent use.
type Map[K comparable, V any] struct {
	key  K
	val  V
	rest map[K]V
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	var zero K
	if k != zero && m.key == k {
		return m.val, true
	}
	v, ok := m.rest[k]
	return v, ok
}

// Set stores v under k.
func (m *Map[K, V]) Set(k K, v V) {
	var zero K
	if k != zero {
		if m.key == k {
			m.val = v
			return
		}
		if _, ok := m.rest[k]; !ok && m.key == zero {
			m.key, m.val = k, v
			return
		}
	}
	if m.rest == nil {
		m.rest = make(map[K]V)
	}
	m.rest[k] = v
}

// Delete removes k; deleting an absent key is a no-op.
func (m *Map[K, V]) Delete(k K) {
	var zero K
	if k != zero && m.key == k {
		var none V
		m.key, m.val = zero, none
		return
	}
	delete(m.rest, k)
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int {
	n := len(m.rest)
	var zero K
	if m.key != zero {
		n++
	}
	return n
}
