package power

import (
	"sort"

	"repro/internal/core"
	"repro/internal/units"
)

// CurrentListener observes changes in the board's aggregate current draw.
// The iCount meter and the oscilloscope bench implement it.
type CurrentListener interface {
	// CurrentChanged reports that from time t onward the board draws total.
	CurrentChanged(t units.Ticks, total units.MicroAmps)
}

// Board models the electrical reality of one node: given the power states of
// all its energy sinks and a compiled draw table, it maintains the aggregate
// current flowing from the supply. It implements core.PowerStateListener, so
// wiring it to a node's Tracker makes every driver-signaled state change
// immediately visible to the meters.
//
// Sink state is held in parallel slices sorted by resource id (a node has a
// handful of sinks, so lookups are a short binary search) with the per-sink
// draw cached at edge time: the publish path — run on every power-state edge
// of every node — touches three small contiguous arrays instead of two maps.
// The draw grid is shared, never copied: a board holds no table of its own.
type Board struct {
	volts units.Volts
	draws *DrawGrid
	now   func() units.Ticks
	dead  bool

	// Parallel, sorted by order[i]: the resource ids, their recorded states,
	// and the cached draw for (order[i], states[i]). Summing draw[i] in index
	// order is exactly the old "resource-id order" sum, so aggregate floats
	// are bit-identical to the map-based implementation.
	order  []core.ResourceID
	states []core.PowerState
	draw   []units.MicroAmps

	listeners []CurrentListener
}

// NewBoard creates a board powered at volts drawing from the given compiled
// table (Calibrated for the simulated platform); now supplies simulated
// time. The board only reads draws, so any number of boards may share it.
func NewBoard(volts units.Volts, draws *DrawGrid, now func() units.Ticks) *Board {
	return &Board{volts: volts, draws: draws, now: now}
}

// Volts returns the supply voltage.
func (b *Board) Volts() units.Volts { return b.volts }

// find returns the index of res in the sorted sink arrays, or (insertion
// point, false).
func (b *Board) find(res core.ResourceID) (int, bool) {
	i := sort.Search(len(b.order), func(i int) bool { return b.order[i] >= res })
	return i, i < len(b.order) && b.order[i] == res
}

// setState records (res, st), registering the sink if unknown, and reports
// whether this is a real edge — a new sink, or a registered sink actually
// changing state. Idempotent re-signals are absorbed here so every caller
// shares one copy of the dedup semantics.
func (b *Board) setState(res core.ResourceID, st core.PowerState) bool {
	i, ok := b.find(res)
	if ok {
		if b.states[i] == st {
			return false
		}
		b.states[i] = st
		b.draw[i] = b.draws.Draw(res, st)
		return true
	}
	b.order = append(b.order, 0)
	b.states = append(b.states, 0)
	b.draw = append(b.draw, 0)
	copy(b.order[i+1:], b.order[i:])
	copy(b.states[i+1:], b.states[i:])
	copy(b.draw[i+1:], b.draw[i:])
	b.order[i] = res
	b.states[i] = st
	b.draw[i] = b.draws.Draw(res, st)
	return true
}

// AddSink registers an energy sink in state initial. Registration order does
// not affect results: the total is summed in resource-id order. Re-adding a
// sink that is already registered in the same state is idempotent and does
// not publish a spurious CurrentChanged edge.
func (b *Board) AddSink(res core.ResourceID, initial core.PowerState) {
	if b.setState(res, initial) && !b.dead {
		b.publish()
	}
}

// Listen registers a current listener and immediately informs it of the
// present draw.
func (b *Board) Listen(l CurrentListener) {
	b.listeners = append(b.listeners, l)
	l.CurrentChanged(b.now(), b.Current())
}

// PowerStateChanged implements core.PowerStateListener. A change that leaves
// the recorded state untouched (a driver re-signaling the state it is already
// in) publishes nothing: listeners only see real edges.
func (b *Board) PowerStateChanged(res core.ResourceID, old, now core.PowerState) {
	if b.setState(res, now) && !b.dead {
		b.publish()
	}
}

// Current returns the instantaneous aggregate draw. It is recomputed from
// scratch on every query so repeated transitions cannot accumulate
// floating-point drift. A shut-down board draws nothing.
func (b *Board) Current() units.MicroAmps {
	if b.dead {
		return 0
	}
	var total units.MicroAmps
	for _, d := range b.draw {
		total += d
	}
	return total
}

// Shutdown models supply collapse (battery depletion): from now on the board
// draws nothing and publishes no further changes. Listeners receive one final
// zero-current edge so integrating meters close their last segment at the
// death instant. Shutdown is idempotent.
func (b *Board) Shutdown() {
	if b.dead {
		return
	}
	b.dead = true
	b.publish()
}

// Dead reports whether the board has been shut down.
func (b *Board) Dead() bool { return b.dead }

// State returns the recorded power state of res.
func (b *Board) State(res core.ResourceID) core.PowerState {
	if i, ok := b.find(res); ok {
		return b.states[i]
	}
	return 0
}

func (b *Board) publish() {
	t := b.now()
	cur := b.Current()
	for _, l := range b.listeners {
		l.CurrentChanged(t, cur)
	}
}
