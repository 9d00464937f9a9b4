package sim

// heapQueue is the original binary-heap event queue, kept as the reference
// oracle the wheel is tested and benchmarked against (see UseHeap). It
// orders one (at, prio, seq) binary heap with O(log n) push, pop and
// cancel, and shares only the event pool with the wheel, so handles go
// stale through the same generation counter and the two queues expose one
// API.
type heapQueue struct {
	items []int32
	pool
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (h *heapQueue) len() int { return len(h.items) }

func (h *heapQueue) events() *pool { return &h.pool }

func (h *heapQueue) reset() {
	h.items = h.items[:0]
	h.pool.reset()
}

func (h *heapQueue) schedule(at Ticks, prio Priority, seq uint64, fn func(any), arg any) Handle {
	i, e := h.acquire(at, prio, seq, fn, arg)
	e.idx = int32(len(h.items))
	h.items = append(h.items, i)
	h.up(len(h.items) - 1)
	return Handle{idx: i, gen: e.gen}
}

func (h *heapQueue) pop(limit Ticks) (Ticks, payload, bool) {
	if len(h.items) == 0 {
		return 0, payload{}, false
	}
	i := h.items[0]
	e := h.at(i)
	if e.at > limit {
		return 0, payload{}, false
	}
	h.remove(0)
	return e.at, h.release(i, e), true
}

func (h *heapQueue) cancel(i int32, e *event) {
	h.remove(int(e.idx))
	h.release(i, e)
}

func (h *heapQueue) less(a, b int32) bool {
	ea, eb := h.at(a), h.at(b)
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	if ea.prio != eb.prio {
		return ea.prio < eb.prio
	}
	return ea.seq < eb.seq
}

func (h *heapQueue) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.at(h.items[i]).idx = int32(i)
	h.at(h.items[j]).idx = int32(j)
}

func (h *heapQueue) remove(i int) {
	last := len(h.items) - 1
	if i != last {
		h.swap(i, last)
	}
	h.items = h.items[:last]
	if i != last && !h.up(i) {
		h.down(i)
	}
}

func (h *heapQueue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *heapQueue) down(i int) {
	n := len(h.items)
	for {
		min := i
		if l := 2*i + 1; l < n && h.less(h.items[l], h.items[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && h.less(h.items[r], h.items[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}
