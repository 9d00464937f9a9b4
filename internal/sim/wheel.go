package sim

import "math/bits"

// Hierarchical timer wheel: the event queue.
//
// Tick space is carved into six levels of 256 slots, one level per byte of
// the 48 low bits of the event time. An event lives at the level of the
// highest byte in which its time differs from the wheel cursor (the time of
// the last dispatched event), in the slot named by that byte of its time.
// Because all higher bytes agree with the cursor, a pending event's slot
// index is strictly greater than the cursor's index at its level — there is
// no ring wrap-around, and every slot at or below the cursor is empty.
//
// Level 0 slots therefore hold exactly one tick each: when the cursor jumps
// to a level-0 slot, its whole list is due at that instant and is bulk-loaded
// into the ready heap, which restores the (priority, sequence) order that
// slot lists do not maintain. Higher-level slots cascade: their events are
// re-placed relative to the advanced cursor and land at lower levels (or in
// the ready heap when due exactly at the cursor). Events more than 2^48
// ticks (~8.9 simulated years) ahead go to a small overflow heap and migrate
// into the wheel when the cursor approaches.
//
// Determinism: dispatch order is exactly (at, prio, seq) — the same total
// order the reference binary heap (heap.go) uses — because level-0 delivery
// funnels every due event through the ready heap, including events
// scheduled for the current instant from inside a running handler.
//
// Allocation: Event objects come from a free list refilled by 256-entry
// arena blocks and are recycled the moment they fire or are canceled;
// generation counters keep stale Handles inert. Steady-state scheduling
// performs no allocation at all.

const (
	wheelLevels   = 6
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelSlotMask = wheelSlots - 1
	wheelArena    = 256
)

type slotList struct{ head, tail *Event }

type wheel struct {
	cur Ticks // time of the last dispatched (or settled) event

	slots    [wheelLevels][wheelSlots]slotList
	occupied [wheelLevels][wheelSlots / 64]uint64

	// ready holds events due exactly at cur, ordered by (prio, seq).
	ready []*Event
	// overflow holds events beyond the wheel horizon, ordered by (at, seq).
	overflow []*Event

	free  *Event
	arena []Event
	used  int

	n int
}

func newWheel() *wheel {
	return &wheel{}
}

func (w *wheel) len() int { return w.n }

func (w *wheel) acquire() *Event {
	if e := w.free; e != nil {
		w.free = e.next
		e.next = nil
		return e
	}
	if w.used == len(w.arena) {
		w.arena = make([]Event, wheelArena)
		w.used = 0
	}
	e := &w.arena[w.used]
	w.used++
	return e
}

// release returns a removed event to the free list. Bumping the generation
// here is what invalidates every outstanding Handle to it.
func (w *wheel) release(e *Event) {
	e.gen++
	e.fn, e.afn, e.arg = nil, nil, nil
	e.prev = nil
	e.loc = locFree
	e.next = w.free
	w.free = e
}

func (w *wheel) schedule(at Ticks, prio Priority, seq uint64, fn func(), afn func(any), arg any) Handle {
	e := w.acquire()
	e.at, e.prio, e.seq = at, prio, seq
	e.fn, e.afn, e.arg = fn, afn, arg
	w.place(e)
	w.n++
	return Handle{e: e, gen: e.gen}
}

// place files an event by the highest byte in which its time differs from
// the cursor. An event due at the cursor — one a running handler schedules
// for the current instant — goes straight to the ready heap. None lands
// below the cursor: the cursor never passes the simulator clock, and
// Schedule rejects times before the clock.
func (w *wheel) place(e *Event) {
	if e.at == w.cur {
		w.readyPush(e)
		return
	}
	diff := uint64(e.at) ^ uint64(w.cur)
	level := (bits.Len64(diff) - 1) >> 3
	if level >= wheelLevels {
		w.overflowPush(e)
		return
	}
	slot := int(uint64(e.at)>>(level*wheelSlotBits)) & wheelSlotMask
	w.slotPush(level, slot, e)
}

func (w *wheel) slotPush(level, slot int, e *Event) {
	l := &w.slots[level][slot]
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
		w.occupied[level][slot>>6] |= 1 << (slot & 63)
	}
	l.tail = e
	e.loc = int32(level<<wheelSlotBits | slot)
}

// takeSlot detaches and returns a slot's list head.
func (w *wheel) takeSlot(level, slot int) *Event {
	l := &w.slots[level][slot]
	head := l.head
	l.head, l.tail = nil, nil
	w.occupied[level][slot>>6] &^= 1 << (slot & 63)
	return head
}

// nextSlot returns the first occupied slot index strictly greater than
// after at the given level.
func (w *wheel) nextSlot(level, after int) (int, bool) {
	start := after + 1
	if start >= wheelSlots {
		return 0, false
	}
	word := start >> 6
	v := w.occupied[level][word] &^ ((1 << (start & 63)) - 1)
	for {
		if v != 0 {
			return word<<6 + bits.TrailingZeros64(v), true
		}
		word++
		if word >= wheelSlots/64 {
			return 0, false
		}
		v = w.occupied[level][word]
	}
}

// curIdx returns the cursor's slot index at a level.
func (w *wheel) curIdx(level int) int {
	return int(uint64(w.cur)>>(level*wheelSlotBits)) & wheelSlotMask
}

// next settles the wheel up to limit: it reports the earliest pending event
// time iff that time is <= limit, cascading upper levels and priming the
// ready heap along the way. The cursor never advances past limit, so a later
// schedule at any time >= limit still lands ahead of the cursor.
func (w *wheel) next(limit Ticks) (Ticks, bool) {
	for {
		if len(w.ready) > 0 {
			// Ready events are due at the cursor; every slot event is
			// strictly after it, so the ready head is the global minimum.
			if at := w.ready[0].at; at <= limit {
				return at, true
			}
			return 0, false
		}
		if w.n == 0 {
			return 0, false
		}
		// The lowest level with an occupied slot beyond the cursor holds the
		// earliest pending events: level L slots beyond the cursor start
		// after every level L-1 slot of the current window ends.
		advanced := false
		for level := 0; level < wheelLevels; level++ {
			slot, ok := w.nextSlot(level, w.curIdx(level))
			if !ok {
				continue
			}
			if level == 0 {
				// A level-0 slot is a single tick; its time is exact.
				at := w.cur&^wheelSlotMask | Ticks(slot)
				if at > limit {
					return 0, false
				}
				w.cur = at
				w.readyLoad(w.takeSlot(0, slot))
			} else {
				// Cascade: jump to the slot's start (a lower bound on its
				// events) and re-place its list relative to the new cursor.
				span := Ticks(1) << ((level + 1) * wheelSlotBits)
				base := w.cur &^ (span - 1)
				at := base | Ticks(slot)<<(level*wheelSlotBits)
				if at > limit {
					return 0, false
				}
				w.cur = at
				for e := w.takeSlot(level, slot); e != nil; {
					next := e.next
					e.next, e.prev = nil, nil
					w.place(e)
					e = next
				}
			}
			advanced = true
			break
		}
		if advanced {
			continue
		}
		// The wheel proper is empty; migrate due overflow events in.
		at := w.overflow[0].at
		if at > limit {
			return 0, false
		}
		w.cur = at
		for len(w.overflow) > 0 {
			e := w.overflow[0]
			if bits.Len64(uint64(e.at)^uint64(w.cur)) > wheelLevels*wheelSlotBits {
				break
			}
			w.overflowRemove(0)
			w.place(e)
		}
	}
}

// pop removes the earliest event. Only valid right after next returned ok,
// which guarantees the ready heap is primed.
func (w *wheel) pop() fired {
	e := w.ready[0]
	w.readyRemove(0)
	f := fired{fn: e.fn, afn: e.afn, arg: e.arg}
	w.release(e)
	w.n--
	return f
}

func (w *wheel) cancel(e *Event) {
	switch {
	case e.loc >= 0:
		level := int(e.loc) >> wheelSlotBits
		slot := int(e.loc) & wheelSlotMask
		l := &w.slots[level][slot]
		if e.prev != nil {
			e.prev.next = e.next
		} else {
			l.head = e.next
		}
		if e.next != nil {
			e.next.prev = e.prev
		} else {
			l.tail = e.prev
		}
		if l.head == nil {
			w.occupied[level][slot>>6] &^= 1 << (slot & 63)
		}
	case e.loc == locReady:
		w.readyRemove(int(e.idx))
	case e.loc == locOverflow:
		w.overflowRemove(int(e.idx))
	default:
		return // already gone; Cancel's handle check should prevent this
	}
	w.release(e)
	w.n--
}

// --- ready heap: (prio, seq) min-heap of the events due at the cursor ---

func readyLess(a, b *Event) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (w *wheel) readyPush(e *Event) {
	e.loc = locReady
	e.idx = int32(len(w.ready))
	w.ready = append(w.ready, e)
	w.readyUp(len(w.ready) - 1)
}

// readyLoad bulk-loads a level-0 slot list and heapifies, which is O(k)
// instead of k pushes' O(k log k) — the path a 10k-node boot storm takes.
func (w *wheel) readyLoad(head *Event) {
	for e := head; e != nil; {
		next := e.next
		e.next, e.prev = nil, nil
		e.loc = locReady
		e.idx = int32(len(w.ready))
		w.ready = append(w.ready, e)
		e = next
	}
	for i := len(w.ready)/2 - 1; i >= 0; i-- {
		w.readyDown(i)
	}
}

func (w *wheel) readyRemove(i int) {
	last := len(w.ready) - 1
	if i != last {
		w.ready[i] = w.ready[last]
		w.ready[i].idx = int32(i)
	}
	w.ready[last] = nil
	w.ready = w.ready[:last]
	if i != last {
		if !w.readyUp(i) {
			w.readyDown(i)
		}
	}
}

func (w *wheel) readyUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !readyLess(w.ready[i], w.ready[parent]) {
			break
		}
		w.ready[i], w.ready[parent] = w.ready[parent], w.ready[i]
		w.ready[i].idx = int32(i)
		w.ready[parent].idx = int32(parent)
		i = parent
		moved = true
	}
	return moved
}

func (w *wheel) readyDown(i int) {
	n := len(w.ready)
	for {
		min := i
		if l := 2*i + 1; l < n && readyLess(w.ready[l], w.ready[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && readyLess(w.ready[r], w.ready[min]) {
			min = r
		}
		if min == i {
			return
		}
		w.ready[i], w.ready[min] = w.ready[min], w.ready[i]
		w.ready[i].idx = int32(i)
		w.ready[min].idx = int32(min)
		i = min
	}
}

// --- overflow heap: (at, seq) min-heap of far-future events ---

func overflowLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (w *wheel) overflowPush(e *Event) {
	e.loc = locOverflow
	e.idx = int32(len(w.overflow))
	w.overflow = append(w.overflow, e)
	i := len(w.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(w.overflow[i], w.overflow[parent]) {
			break
		}
		w.overflow[i], w.overflow[parent] = w.overflow[parent], w.overflow[i]
		w.overflow[i].idx = int32(i)
		w.overflow[parent].idx = int32(parent)
		i = parent
	}
}

func (w *wheel) overflowRemove(i int) {
	last := len(w.overflow) - 1
	if i != last {
		w.overflow[i] = w.overflow[last]
		w.overflow[i].idx = int32(i)
	}
	w.overflow[last] = nil
	w.overflow = w.overflow[:last]
	if i == last {
		return
	}
	// Sift the replacement whichever way restores heap order.
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(w.overflow[i], w.overflow[parent]) {
			break
		}
		w.overflow[i], w.overflow[parent] = w.overflow[parent], w.overflow[i]
		w.overflow[i].idx = int32(i)
		w.overflow[parent].idx = int32(parent)
		i = parent
	}
	n := len(w.overflow)
	for {
		min := i
		if l := 2*i + 1; l < n && overflowLess(w.overflow[l], w.overflow[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && overflowLess(w.overflow[r], w.overflow[min]) {
			min = r
		}
		if min == i {
			return
		}
		w.overflow[i], w.overflow[min] = w.overflow[min], w.overflow[i]
		w.overflow[i].idx = int32(i)
		w.overflow[min].idx = int32(min)
		i = min
	}
}
