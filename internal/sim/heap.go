package sim

// heapQueue is the original binary-heap event queue, kept as the
// differential-testing and benchmarking baseline (-queue=heap). It preserves
// the pre-wheel implementation's behavior exactly: one fresh Event
// allocation per schedule, no pooling, O(log n) push/pop/cancel via a
// (at, prio, seq)-ordered binary heap. Handles still go stale through the
// shared generation counter, so the two queues expose one API.
type heapQueue struct {
	events []*Event
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (h *heapQueue) len() int { return len(h.events) }

func (h *heapQueue) schedule(at Ticks, prio Priority, seq uint64, fn func(), afn func(any), arg any) Handle {
	e := &Event{at: at, prio: prio, seq: seq, fn: fn, afn: afn, arg: arg, loc: locHeap}
	e.idx = int32(len(h.events))
	h.events = append(h.events, e)
	h.up(len(h.events) - 1)
	return Handle{e: e, gen: e.gen}
}

func (h *heapQueue) next(limit Ticks) (Ticks, bool) {
	if len(h.events) == 0 || h.events[0].at > limit {
		return 0, false
	}
	return h.events[0].at, true
}

func (h *heapQueue) pop() fired {
	e := h.events[0]
	h.remove(0)
	e.gen++
	return fired{fn: e.fn, afn: e.afn, arg: e.arg}
}

func (h *heapQueue) cancel(e *Event) {
	if e.loc != locHeap {
		return
	}
	h.remove(int(e.idx))
	e.gen++
	e.loc = locFree
}

func heapLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (h *heapQueue) remove(i int) {
	last := len(h.events) - 1
	if i != last {
		h.events[i] = h.events[last]
		h.events[i].idx = int32(i)
	}
	h.events[last] = nil
	h.events = h.events[:last]
	if i != last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

func (h *heapQueue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h.events[i], h.events[parent]) {
			break
		}
		h.events[i], h.events[parent] = h.events[parent], h.events[i]
		h.events[i].idx = int32(i)
		h.events[parent].idx = int32(parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *heapQueue) down(i int) {
	n := len(h.events)
	for {
		min := i
		if l := 2*i + 1; l < n && heapLess(h.events[l], h.events[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && heapLess(h.events[r], h.events[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.events[i], h.events[min] = h.events[min], h.events[i]
		h.events[i].idx = int32(i)
		h.events[min].idx = int32(min)
		i = min
	}
}
