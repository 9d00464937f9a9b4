// Package sim provides the deterministic discrete-event simulation kernel
// underneath the Quanto reproduction.
//
// A single Simulator owns one global event queue shared by every simulated
// node, the radio medium, and the measurement bench. Events are ordered by
// (time, priority, sequence number); the sequence number makes scheduling
// order a stable tie-break, so a run is fully reproducible: the same program
// with the same seed produces byte-identical logs.
//
// The queue is a hierarchical timer wheel (wheel.go): six cascading levels
// of 256 slots over the tick space, one same-tick FIFO lane per priority,
// and a far-future overflow heap, giving O(1) schedule/cancel at 10k-100k
// nodes. Its events live in a pool of fixed index-addressed blocks
// (pool.go) that holds no Go pointer outside the callbacks, so the garbage
// collector neither scans the queue nor runs write barriers on its links,
// and Handles are (index, generation) pairs. Steady-state scheduling
// allocates nothing. The original binary-heap queue survives only in the
// package's tests (heap_test.go), as the reference oracle they replay
// whole workloads against, requiring byte-identical traces.
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

// Handle is a cancelable reference to a scheduled event: the event's pool
// index and the generation it was issued under. It holds no pointer. The
// zero Handle is valid and behaves like an event that already fired:
// Scheduled reports false and Cancel is a no-op. Because events are pooled,
// once the event fires or is canceled the handle goes stale and can never
// affect a recycled successor.
type Handle struct {
	idx int32
	gen uint64
}

// queue is the event-queue contract shared by the timer wheel and the
// reference heap of the package's tests. Both dispatch in exactly
// (at, prio, seq) order and keep their events in a pool.
type queue interface {
	// schedule enqueues fn(arg) and returns its handle.
	schedule(at Ticks, prio Priority, seq uint64, fn func(any), arg any) Handle
	// pop removes the earliest pending event, provided its time does not
	// exceed limit, and returns that time and the event's callback. It may
	// advance internal cursors up to limit but never beyond, so later
	// schedules at >= limit stay valid.
	pop(limit Ticks) (Ticks, payload, bool)
	// cancel removes pending event i, whose record is e.
	cancel(i int32, e *event)
	// len reports how many events are pending.
	len() int
	// events returns the pool the queue keeps its events in.
	events() *pool
	// reset drops every pending event and returns the queue to its state
	// when new, keeping the storage it has grown.
	reset()
}

// Simulator is a single-threaded discrete-event scheduler.
type Simulator struct {
	now    Ticks
	seq    uint64
	q      queue
	p      *pool // q's event pool, where Handles are looked up
	halted bool
}

// oracle, when set, builds the queue New uses in place of the timer wheel.
// Only the package's tests set it (export_test.go), to run whole workloads
// on the reference heap and compare their traces byte for byte.
var oracle func() queue

// New returns an empty simulator positioned at time zero, backed by the
// hierarchical timer wheel.
func New() *Simulator {
	if oracle != nil {
		return newSimulator(oracle())
	}
	return newSimulator(newWheel())
}

func newSimulator(q queue) *Simulator {
	return &Simulator{q: q, p: q.events()}
}

// Reset returns the simulator to the state New leaves it in: no pending
// event, the clock and the sequence counter at zero, and not halted. Every
// Handle from before the reset goes stale. The queue keeps the storage it
// has grown, so a simulator reset between runs schedules the next run's
// events without growing it again, in the same (at, prio, seq) order as a
// new simulator.
func (s *Simulator) Reset() {
	s.q.reset()
	s.now, s.seq, s.halted = 0, 0, false
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
	return s.q.schedule(at, prio, s.seq, callFunc, fn)
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
	return s.q.schedule(at, prio, s.seq, fn, arg)
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
	if h.idx == 0 {
		return
	}
	if e := s.p.at(h.idx); e.gen == h.gen {
		s.q.cancel(h.idx, e)
	}
}

// Scheduled reports whether h's event is still pending.
func (s *Simulator) Scheduled(h Handle) bool {
	return h.idx != 0 && s.p.at(h.idx).gen == h.gen
}

// At reports when h's event is scheduled to fire; 0 if h is stale.
func (s *Simulator) At(h Handle) Ticks {
	if s.Scheduled(h) {
		return s.p.at(h.idx).at
	}
	return 0
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
	t, f, ok := s.q.pop(math.MaxInt64)
	if !ok {
		return false
	}
	s.now = t
	f.fn(f.arg)
	return true
}

// Run dispatches events until the queue drains, the simulator is halted, or
// the next event lies beyond until. The clock is left at until when the run
// completes by reaching the horizon, so measurements over [0, until] see the
// full window. It returns the number of events dispatched.
func (s *Simulator) Run(until Ticks) int {
	n := 0
	for !s.halted {
		t, f, ok := s.q.pop(until)
		if !ok {
			break
		}
		s.now = t
		f.fn(f.arg)
		n++
	}
	if !s.halted && s.now < until {
		s.now = until
	}
	return n
}
