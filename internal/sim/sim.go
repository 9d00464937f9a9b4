// Package sim provides the deterministic discrete-event simulation kernel
// underneath the Quanto reproduction.
//
// A single Simulator owns one global event queue shared by every simulated
// node, the radio medium, and the measurement bench. Events are ordered by
// (time, priority, sequence number); the sequence number makes scheduling
// order a stable tie-break, so a run is fully reproducible: the same program
// with the same seed produces byte-identical logs.
//
// Two queue implementations share that ordering contract. The default is a
// hierarchical timer wheel (wheel.go): six cascading levels of 256 slots
// over the tick space, a far-future overflow heap, and a free-list event
// pool, giving O(1) schedule/cancel and allocation-free steady-state
// operation at 10k-100k nodes. QueueHeap selects the original binary-heap
// queue (heap.go), kept as a differential-testing baseline: both queues
// dispatch every workload in the identical order, so traces are
// byte-identical whichever is selected.
package sim

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Ticks re-exports the simulation time unit for convenience.
type Ticks = units.Ticks

// Priority orders events that fire at the same instant. Lower values run
// first. Hardware events (state machines, medium deliveries) use PrioHardware
// so that, for example, a radio finishes receiving a frame before the CPU
// handler scheduled at the same instant observes it.
type Priority int8

// Predefined scheduling priorities.
const (
	// PrioTopology runs before everything else at an instant: topology
	// maintenance (mobility epochs, death-driven routing notifications) must
	// be visible to every hardware and software event sharing its tick.
	PrioTopology Priority = -20 // topology changes (mobility, rerouting)
	PrioHardware Priority = -10 // hardware state machines, medium
	PrioIRQ      Priority = 0   // interrupt dispatch
	PrioTask     Priority = 10  // deferred software work
)

// QueueKind selects the event-queue implementation backing a Simulator.
type QueueKind string

// Queue implementations. Both dispatch in the identical (time, priority,
// sequence) order; QueueHeap exists as the pre-wheel baseline for
// differential tests and benchmarks.
const (
	QueueWheel QueueKind = "wheel"
	QueueHeap  QueueKind = "heap"
)

// ValidQueue reports whether kind names a queue implementation ("" selects
// the default wheel).
func ValidQueue(kind QueueKind) bool {
	switch kind {
	case "", QueueWheel, QueueHeap:
		return true
	}
	return false
}

// Event is one scheduled callback. Events are owned by the queue: the wheel
// recycles them through a free list the instant they fire or are canceled,
// so user code never holds a *Event directly — Schedule returns a
// generation-checked Handle instead.
type Event struct {
	at   Ticks
	prio Priority
	seq  uint64

	// gen is bumped every time the event leaves the queue (fire or cancel),
	// so Handles to a recycled Event turn inert instead of acting on an
	// unrelated later event (the classic ABA hazard of pooling).
	gen uint64

	// Exactly one of fn / (afn, arg) is set: ScheduleArg avoids a closure
	// allocation on hot paths by carrying the argument alongside a shared
	// callback.
	fn  func()
	afn func(any)
	arg any

	// Intrusive links for the wheel's slot lists; next doubles as the
	// free-list link while the event is pooled.
	next, prev *Event

	// loc encodes where the event currently lives: locFree / locReady /
	// locOverflow / locHeap, or level<<8|slot inside the wheel.
	loc int32
	// idx is the event's index inside whichever binary heap holds it
	// (ready, overflow, or the legacy heap queue).
	idx int32
}

const (
	locFree     int32 = -1
	locReady    int32 = -2
	locOverflow int32 = -3
	locHeap     int32 = -4
)

// Handle is a cancelable reference to a scheduled event. The zero Handle is
// valid and behaves like an event that already fired: Scheduled reports
// false and Cancel is a no-op. Because events are pooled, a Handle carries
// the generation it was issued under; once the event fires or is canceled
// the handle goes stale and can never affect a recycled successor.
type Handle struct {
	e   *Event
	gen uint64
}

// Scheduled reports whether the referenced event is still pending.
func (h Handle) Scheduled() bool { return h.e != nil && h.e.gen == h.gen }

// At reports when the event is scheduled to fire; 0 if the handle is stale.
func (h Handle) At() Ticks {
	if h.Scheduled() {
		return h.e.at
	}
	return 0
}

// fired is a popped event's payload, copied out before the Event object is
// released back to the pool.
type fired struct {
	fn  func()
	afn func(any)
	arg any
}

// queue is the event-queue contract shared by the timer wheel and the legacy
// binary heap. Both dispatch in exactly (at, prio, seq) order.
type queue interface {
	// schedule enqueues a callback and returns its handle.
	schedule(at Ticks, prio Priority, seq uint64, fn func(), afn func(any), arg any) Handle
	// next reports the earliest pending event time, provided it does not
	// exceed limit. It may advance internal cursors up to limit but never
	// beyond, so later schedules at >= limit stay valid.
	next(limit Ticks) (Ticks, bool)
	// pop removes and returns the earliest event's payload. Only valid
	// immediately after next returned ok.
	pop() fired
	// cancel removes a pending event.
	cancel(e *Event)
	// len reports how many events are pending.
	len() int
}

// Simulator is a single-threaded discrete-event scheduler.
type Simulator struct {
	now    Ticks
	seq    uint64
	q      queue
	halted bool
}

// New returns an empty simulator positioned at time zero, backed by the
// hierarchical timer wheel.
func New() *Simulator { return NewWithQueue(QueueWheel) }

// NewWithQueue returns an empty simulator backed by the named queue
// implementation ("" selects the default wheel). Unknown kinds panic: queue
// selection is a configuration constant, not a runtime condition.
func NewWithQueue(kind QueueKind) *Simulator {
	switch kind {
	case "", QueueWheel:
		return &Simulator{q: newWheel()}
	case QueueHeap:
		return &Simulator{q: newHeapQueue()}
	}
	panic(fmt.Sprintf("sim: unknown queue kind %q", kind))
}

// Now returns the current simulated time.
func (s *Simulator) Now() Ticks { return s.now }

// Schedule registers fn to run at the absolute time at. Scheduling in the
// past is a programming error and panics: silent reordering would destroy
// the determinism guarantees the energy logs depend on.
func (s *Simulator) Schedule(at Ticks, prio Priority, fn func()) Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("sim: schedule with nil function")
	}
	s.seq++
	return s.q.schedule(at, prio, s.seq, fn, nil, nil)
}

// ScheduleArg registers fn(arg) to run at the absolute time at. It is the
// allocation-free variant of Schedule for hot paths: a caller that would
// otherwise close over one variable passes a long-lived fn plus the variable
// as arg, so steady-state scheduling allocates nothing.
func (s *Simulator) ScheduleArg(at Ticks, prio Priority, fn func(any), arg any) Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("sim: schedule with nil function")
	}
	s.seq++
	return s.q.schedule(at, prio, s.seq, nil, fn, arg)
}

// After schedules fn to run d ticks from now.
func (s *Simulator) After(d Ticks, prio Priority, fn func()) Handle {
	return s.Schedule(s.now+d, prio, fn)
}

// AfterArg schedules fn(arg) to run d ticks from now.
func (s *Simulator) AfterArg(d Ticks, prio Priority, fn func(any), arg any) Handle {
	return s.ScheduleArg(s.now+d, prio, fn, arg)
}

// Cancel removes a pending event. Canceling an event that already fired,
// was already canceled, or was never scheduled (the zero Handle) is a no-op.
func (s *Simulator) Cancel(h Handle) {
	if !h.Scheduled() {
		return
	}
	s.q.cancel(h.e)
}

// Halt stops Run before the next event is dispatched.
func (s *Simulator) Halt() { s.halted = true }

// Pending reports how many events are queued.
func (s *Simulator) Pending() int { return s.q.len() }

// Step dispatches the single next event. It reports false when the queue is
// empty or the simulator has been halted.
func (s *Simulator) Step() bool {
	if s.halted {
		return false
	}
	t, ok := s.q.next(math.MaxInt64)
	if !ok {
		return false
	}
	f := s.q.pop()
	s.now = t
	dispatch(f)
	return true
}

// Run dispatches events until the queue drains, the simulator is halted, or
// the next event lies beyond until. The clock is left at until when the run
// completes by reaching the horizon, so measurements over [0, until] see the
// full window. It returns the number of events dispatched.
func (s *Simulator) Run(until Ticks) int {
	n := 0
	for !s.halted {
		t, ok := s.q.next(until)
		if !ok {
			break
		}
		f := s.q.pop()
		s.now = t
		dispatch(f)
		n++
	}
	if !s.halted && s.now < until {
		s.now = until
	}
	return n
}

func dispatch(f fired) {
	if f.fn != nil {
		f.fn()
		return
	}
	f.afn(f.arg)
}
