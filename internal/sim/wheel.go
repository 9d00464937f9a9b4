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
// to a level-0 slot, its whole list is due at that instant and moves into
// the same-tick lanes, one FIFO per priority. Higher-level slots cascade:
// their events are re-placed relative to the advanced cursor and land at
// lower levels (or in a lane when due exactly at the cursor). Events more
// than 2^48 ticks (~8.9 simulated years) ahead go to a small overflow heap
// and migrate into the wheel when the cursor approaches.
//
// Determinism: dispatch order is exactly (at, prio, seq) — the same total
// order the reference heap of the package's tests uses. Pop serves the head
// of the lowest non-empty lane, so each lane only has to hold its events in
// seq order, and it does:
//   - Events sharing a tick always sit in one slot list, in seq order. Where
//     an event is filed is a function of its time and the cursor, a
//     cascade re-files a whole list in order, and a later schedule carries
//     a larger seq and appends at the tail. The overflow heap hands events
//     back in (at, seq) order.
//   - An event scheduled for the current tick from a running handler
//     carries the largest seq so far, so appending it to its lane keeps
//     the lane in order.
//
// Storage: events come from the pointer-free block pool (pool.go) and are
// linked by index, so the garbage collector neither scans the queue nor
// runs write barriers on its links. Events are recycled the moment they
// fire or are canceled; generation counters keep stale Handles inert.
// Steady-state scheduling performs no allocation at all.

const (
	wheelLevels   = 6
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelSlotMask = wheelSlots - 1
	// wheelLanes is one same-tick lane per int8 priority.
	wheelLanes = 256
)

type wheel struct {
	cur Ticks // time of the last dispatched (or settled) event

	slots    [wheelLevels][wheelSlots]list
	occupied [wheelLevels][wheelSlots / 64]uint64

	// lanes hold the events due exactly at cur, lane prio+128 in seq order;
	// laneBits marks the non-empty ones, and bit k of laneWords is set while
	// laneBits[k] is non-zero, so finding the lowest lane takes no loop.
	lanes     [wheelLanes]list
	laneBits  [wheelLanes / 64]uint64
	laneWords uint8

	// overflow holds events beyond the wheel horizon, ordered by (at, seq).
	overflow []int32

	n int

	pool // last, so its inline block lies past the struct's pointers
}

func newWheel() *wheel {
	return &wheel{}
}

func (w *wheel) len() int { return w.n }

// reset empties every slot, lane and the overflow heap, keeping the
// overflow's array and the pool's blocks, and moves the cursor back to 0.
func (w *wheel) reset() {
	w.cur = 0
	w.slots = [wheelLevels][wheelSlots]list{}
	w.occupied = [wheelLevels][wheelSlots / 64]uint64{}
	w.lanes = [wheelLanes]list{}
	w.laneBits = [wheelLanes / 64]uint64{}
	w.laneWords = 0
	w.overflow = w.overflow[:0]
	w.n = 0
	w.pool.reset()
}

func (w *wheel) events() *pool { return &w.pool }

func (w *wheel) schedule(at Ticks, prio Priority, seq uint64, fn func(any), arg any) Handle {
	i, e := w.acquire(at, prio, seq, fn, arg)
	w.place(i, e)
	w.n++
	return Handle{idx: i, gen: e.gen}
}

// place files an event by the highest byte in which its time differs from
// the cursor. An event due at the cursor — one a running handler schedules
// for the current instant — goes straight to its lane. None lands below the
// cursor: the cursor never passes the simulator clock, and Schedule rejects
// times before the clock.
func (w *wheel) place(i int32, e *event) {
	if e.at == w.cur {
		w.lanePush(i, e)
		return
	}
	diff := uint64(e.at) ^ uint64(w.cur)
	level := (bits.Len64(diff) - 1) >> 3
	if level >= wheelLevels {
		w.overflowPush(i, e)
		return
	}
	slot := int(uint64(e.at)>>(level*wheelSlotBits)) & wheelSlotMask
	if w.push(&w.slots[level][slot], i, e) {
		w.occupied[level][slot>>6] |= 1 << (slot & 63)
	}
	e.loc = int32(level<<wheelSlotBits | slot)
}

// laneOf returns the same-tick lane of a priority: lane 0 serves -128.
func laneOf(prio Priority) int { return int(prio) + 128 }

func (w *wheel) lanePush(i int32, e *event) {
	lane := laneOf(e.prio)
	if w.push(&w.lanes[lane], i, e) {
		w.laneBits[lane>>6] |= 1 << (lane & 63)
		w.laneWords |= 1 << (lane >> 6)
	}
	e.loc = locLane
}

// laneUnlink removes e from its lane.
func (w *wheel) laneUnlink(e *event) {
	lane := laneOf(e.prio)
	if w.unlink(&w.lanes[lane], e) {
		w.laneEmptied(lane)
	}
}

// laneEmptied clears the occupancy bits of a lane that just emptied.
func (w *wheel) laneEmptied(lane int) {
	word := lane >> 6
	w.laneBits[word] &^= 1 << (lane & 63)
	if w.laneBits[word] == 0 {
		w.laneWords &^= 1 << word
	}
}

// takeSlot detaches and returns a slot's list head.
func (w *wheel) takeSlot(level, slot int) int32 {
	l := &w.slots[level][slot]
	head := l.head
	*l = list{}
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

// settle advances the wheel up to limit: it reports whether the earliest
// pending events are due no later than limit, cascading upper levels and
// filling the lanes with them along the way. The cursor never advances past
// limit, so a later schedule at any time >= limit still lands ahead of the
// cursor.
func (w *wheel) settle(limit Ticks) bool {
	for {
		if w.laneWords != 0 {
			// Lane events are due at the cursor; every slot event is
			// strictly after it, so the cursor is the global minimum.
			return w.cur <= limit
		}
		if w.n == 0 {
			return false
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
			var at Ticks
			if level == 0 {
				// A level-0 slot is a single tick; its time is exact.
				at = w.cur&^wheelSlotMask | Ticks(slot)
			} else {
				// Cascade: jump to the slot's start (a lower bound on its
				// events) and re-place its list relative to the new cursor.
				span := Ticks(1) << ((level + 1) * wheelSlotBits)
				at = w.cur&^(span-1) | Ticks(slot)<<(level*wheelSlotBits)
			}
			if at > limit {
				return false
			}
			w.cur = at
			// At level 0 every event is due now, so place sends each to its
			// lane.
			for i := w.takeSlot(level, slot); i != 0; {
				e := w.at(i)
				next := e.next
				w.place(i, e)
				i = next
			}
			advanced = true
			break
		}
		if advanced {
			continue
		}
		// The wheel proper is empty; migrate due overflow events in.
		at := w.at(w.overflow[0]).at
		if at > limit {
			return false
		}
		w.cur = at
		for len(w.overflow) > 0 {
			i := w.overflow[0]
			e := w.at(i)
			if bits.Len64(uint64(e.at)^uint64(w.cur)) > wheelLevels*wheelSlotBits {
				break
			}
			w.overflowRemove(0)
			w.place(i, e)
		}
	}
}

// pop settles the wheel up to limit and removes the head of the lowest
// non-empty lane.
func (w *wheel) pop(limit Ticks) (Ticks, payload, bool) {
	if !w.settle(limit) {
		return 0, payload{}, false
	}
	// settle left a lane filled, so laneWords is non-zero; the mask only
	// lets the compiler drop the bounds check.
	word := bits.TrailingZeros8(w.laneWords) & (wheelLanes/64 - 1)
	lane := word<<6 + bits.TrailingZeros64(w.laneBits[word])
	l := &w.lanes[lane]
	i := l.head
	e := w.at(i)
	if l.head = e.next; l.head != 0 {
		w.at(l.head).prev = 0
	} else {
		l.tail = 0
		w.laneEmptied(lane)
	}
	w.n--
	return w.cur, w.release(i, e), true
}

func (w *wheel) cancel(i int32, e *event) {
	switch {
	case e.loc >= 0:
		level := int(e.loc) >> wheelSlotBits
		slot := int(e.loc) & wheelSlotMask
		if w.unlink(&w.slots[level][slot], e) {
			w.occupied[level][slot>>6] &^= 1 << (slot & 63)
		}
	case e.loc == locLane:
		w.laneUnlink(e)
	case e.loc == locOverflow:
		w.overflowRemove(int(e.idx))
	default:
		return // already gone; Cancel's handle check should prevent this
	}
	w.release(i, e)
	w.n--
}

// --- overflow heap: (at, seq) min-heap of far-future events ---

func (w *wheel) overflowLess(a, b int32) bool {
	ea, eb := w.at(a), w.at(b)
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (w *wheel) overflowSwap(i, j int) {
	h := w.overflow
	h[i], h[j] = h[j], h[i]
	w.at(h[i]).idx = int32(i)
	w.at(h[j]).idx = int32(j)
}

func (w *wheel) overflowPush(i int32, e *event) {
	e.loc = locOverflow
	e.idx = int32(len(w.overflow))
	w.overflow = append(w.overflow, i)
	w.overflowUp(len(w.overflow) - 1)
}

func (w *wheel) overflowRemove(i int) {
	last := len(w.overflow) - 1
	if i != last {
		w.overflowSwap(i, last)
	}
	w.overflow = w.overflow[:last]
	if i != last && !w.overflowUp(i) {
		w.overflowDown(i)
	}
}

func (w *wheel) overflowUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !w.overflowLess(w.overflow[i], w.overflow[parent]) {
			break
		}
		w.overflowSwap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (w *wheel) overflowDown(i int) {
	n := len(w.overflow)
	for {
		min := i
		if l := 2*i + 1; l < n && w.overflowLess(w.overflow[l], w.overflow[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && w.overflowLess(w.overflow[r], w.overflow[min]) {
			min = r
		}
		if min == i {
			return
		}
		w.overflowSwap(i, min)
		i = min
	}
}
