package sim

// eventHeap is a binary min-heap ordered by event key. It holds what the
// calendar cannot (see Engine), and is the whole scheduler in the
// heap-reference engine. A hand-rolled heap avoids the interface
// indirection of container/heap, and the tracked indices give O(log n)
// removal when a queued event is cancelled.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	return keyLess(h[i], h[j])
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	ev.index = int32(len(*h) - 1)
	h.up(int(ev.index))
}

func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old)
	top := old[0]
	old.swap(0, n-1)
	old[n-1] = nil
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	top.index = -1
	return top
}

// removeAt deletes the event at heap position i.
func (h *eventHeap) removeAt(i int) {
	old := *h
	n := len(old)
	if i == n-1 {
		old[n-1].index = -1
		old[n-1] = nil
		*h = old[:n-1]
		return
	}
	old.swap(i, n-1)
	old[n-1].index = -1
	old[n-1] = nil
	*h = old[:n-1]
	h.down(i)
	h.up(i)
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			return
		}
		h.swap(i, best)
		i = best
	}
}
