package sim

// Event storage, shared by the timer wheel and the reference heap of the
// package's tests.
//
// Events live in fixed blocks of poolBlock entries addressed by int32
// index; index 0 is reserved to mean "none". The event record holds no Go
// pointer, so the garbage collector never scans its blocks and the queue's
// link writes run no write barrier. Each event's callback sits at the same
// index in a parallel block array, the only event data the collector
// scans. Block 0 lives inline in the pool; growth appends a block and never
// copies one, and a fired or canceled event goes back on a free list for
// the next schedule.

const (
	poolShift = 8
	poolBlock = 1 << poolShift
	poolMask  = poolBlock - 1
)

// event is the queue's record of one scheduled callback.
type event struct {
	at  Ticks
	seq uint64

	// gen is bumped every time the event leaves the queue (fire or cancel),
	// so Handles to a recycled event turn inert instead of acting on an
	// unrelated later event (the classic ABA hazard of pooling).
	gen uint64

	// next and prev link the event into a wheel slot or a same-tick lane;
	// next doubles as the free-list link while the event is pooled.
	next, prev int32

	// loc encodes where the event currently lives in the wheel: locFree /
	// locLane / locOverflow, or level<<8|slot.
	loc int32
	// idx is the event's index inside whichever binary heap holds it (the
	// wheel's overflow heap or the reference heap).
	idx int32

	prio Priority
}

const (
	locFree     int32 = -1
	locLane     int32 = -2
	locOverflow int32 = -3
)

// payload is what dispatch runs: fn(arg).
type payload struct {
	fn  func(any)
	arg any
}

// callFunc is the shared trampoline Schedule rides on: the plain func()
// travels as the argument, so every event dispatches through one shape.
func callFunc(fn any) { fn.(func())() }

// list is a doubly linked FIFO of events, by index.
type list struct{ head, tail int32 }

type pool struct {
	ev   []*[poolBlock]event // ev[0] stays nil: block 0 is first
	pay  []*[poolBlock]payload
	free int32 // head of the free list; 0 when empty
	used int32 // indices handed out so far, the reserved 0 included

	// first is block 0, kept inline and after every pointer field, so the
	// collector does not scan it. A queue that never holds more than
	// poolBlock events, which is most runs, then reaches each event with
	// no block pointer to load on the way.
	first [poolBlock]event
}

func (p *pool) at(i int32) *event {
	if i < poolBlock {
		return &p.first[i]
	}
	return &p.ev[i>>poolShift][i&poolMask]
}

// acquire takes a free event and stores its fields and callback.
func (p *pool) acquire(at Ticks, prio Priority, seq uint64, fn func(any), arg any) (int32, *event) {
	i := p.free
	if i == 0 {
		i = p.grow()
	}
	e := p.at(i)
	p.free = e.next
	e.at, e.prio, e.seq = at, prio, seq
	p.pay[i>>poolShift][i&poolMask] = payload{fn: fn, arg: arg}
	return i, e
}

// grow puts the next never-used index on the free list, adding a block
// when every index is in use, and returns it.
func (p *pool) grow() int32 {
	if p.used == 0 {
		p.used = 1 // index 0 means "none"
	}
	if int(p.used>>poolShift) == len(p.pay) {
		var b *[poolBlock]event
		if len(p.pay) > 0 {
			b = new([poolBlock]event)
		}
		p.ev = append(p.ev, b)
		p.pay = append(p.pay, new([poolBlock]payload))
	}
	i := p.used
	p.used++
	p.at(i).next = 0
	p.free = i
	return i
}

// release returns a removed event to the free list and hands back its
// callback. Bumping the generation here is what invalidates every
// outstanding Handle to it. The callback stays in its slot until the next
// schedule overwrites it: clearing it would cost a write barrier per event,
// and the free list hands the most recently freed index out first.
func (p *pool) release(i int32, e *event) payload {
	e.gen++
	e.loc = locFree
	e.next = p.free
	p.free = i
	return p.pay[i>>poolShift][i&poolMask]
}

// reset forgets every event, pending or free, so the next acquire hands
// out index 1, then 2, 3 and on, as a new pool does. The blocks stay. Each
// used index gets a new generation, which turns every outstanding Handle
// stale, and loses its callback, so nothing a previous run scheduled stays
// reachable.
func (p *pool) reset() {
	for i := int32(1); i < p.used; i++ {
		p.at(i).gen++
		p.pay[i>>poolShift][i&poolMask] = payload{}
	}
	p.free, p.used = 0, 0
}

// push appends event i to l's tail and reports whether l was empty.
func (p *pool) push(l *list, i int32, e *event) bool {
	e.prev, e.next = l.tail, 0
	if l.tail == 0 {
		l.head, l.tail = i, i
		return true
	}
	p.at(l.tail).next = i
	l.tail = i
	return false
}

// unlink removes e from l and reports whether l is now empty.
func (p *pool) unlink(l *list, e *event) bool {
	if e.prev != 0 {
		p.at(e.prev).next = e.next
	} else {
		l.head = e.next
	}
	if e.next != 0 {
		p.at(e.next).prev = e.prev
	} else {
		l.tail = e.prev
	}
	return l.head == 0
}
