// Node mobility: the medium steps registered movers on a fixed epoch grid.
// Each epoch writes every mover's new position through SetPosition, which
// drops the neighbor index; the next transmission rebuilds it once for the
// whole epoch, and an epoch with no transmission builds nothing. A rebuild
// costs O(nodes · degree), less than patching the rows around each mover
// when every node moves. Index rows are a pure function of the registered
// receivers and their positions, so when the rebuild happens changes no
// output.
//
// Positions are quantized to the epoch grid: a node's location during
// [k·step, (k+1)·step) is its mover's position at k·step, materialized into
// a per-mover log. Every position read outside the index — the CCA energy
// query above all — goes through that log keyed by query time, never through
// the mutable position table, so the answer is a pure function of
// (mover, time). A CCA read at a busy CPU's clock, which can run past the
// event clock, therefore sees the position of the epoch it falls in. The
// log stays because it defines simulated output.
//
// Epoch events run at PrioTopology, ahead of every other event sharing
// their tick.
package medium

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

// Mover yields a node's position as a pure function of simulated time.
// Implementations must be deterministic: the medium materializes positions
// lazily and possibly ahead of the event clock, so PositionAt must return
// the same value however and whenever it is sampled.
type Mover interface {
	PositionAt(t units.Ticks) Position
}

// moverEntry is one mobile node's epoch-quantized position log:
// log[k] = mv.PositionAt(k·step).
type moverEntry struct {
	id  core.NodeID
	mv  Mover
	log []Position
}

// ensure materializes the log through epoch k.
func (e *moverEntry) ensure(k int, step units.Ticks) {
	for len(e.log) <= k {
		e.log = append(e.log, e.mv.PositionAt(units.Ticks(len(e.log))*step))
	}
}

// mobility is the medium's mobility state.
type mobility struct {
	step   units.Ticks
	movers []*moverEntry // attach order: the per-epoch update order
	byID   map[core.NodeID]*moverEntry
}

// EnableMobility starts stepping movers every step ticks (epochs lie on
// absolute multiples of step). Requires the spatial link layer — mobility is
// meaningless under the broadcast model.
func (m *Medium) EnableMobility(step units.Ticks) {
	if m.sp == nil {
		panic("medium: EnableMobility before EnableSpatial")
	}
	if step <= 0 {
		panic("medium: mobility step must be positive")
	}
	if m.mob != nil {
		panic("medium: EnableMobility called twice")
	}
	m.mob = &mobility{step: step, byID: make(map[core.NodeID]*moverEntry)}
	next := (m.s.Now()/step + 1) * step
	m.s.Schedule(next, sim.PrioTopology, m.mobilityEpoch)
}

// MobilityEnabled reports whether mobility stepping is configured.
func (m *Medium) MobilityEnabled() bool { return m.mob != nil }

// SetMover attaches a mover to a node and places it at the mover's origin
// (epoch 0) position, replacing any position set earlier. Movers step in
// attach order; attach every mover before the run for a canonical order.
func (m *Medium) SetMover(id core.NodeID, mv Mover) {
	if m.mob == nil {
		panic("medium: SetMover before EnableMobility")
	}
	if _, dup := m.mob.byID[id]; dup {
		panic("medium: SetMover called twice for one node")
	}
	e := &moverEntry{id: id, mv: mv}
	e.ensure(0, m.mob.step)
	m.mob.movers = append(m.mob.movers, e)
	m.mob.byID[id] = e
	m.SetPosition(id, e.log[0])
}

// mobilityEpoch relocates every mover to its position for the epoch starting
// now and re-arms itself. It runs at PrioTopology, ahead of every hardware
// and software event sharing the tick, so a transmission at the epoch tick
// already sees the new topology.
func (m *Medium) mobilityEpoch() {
	at := m.s.Now()
	k := int(at / m.mob.step)
	for _, e := range m.mob.movers {
		e.ensure(k, m.mob.step)
		m.SetPosition(e.id, e.log[k])
	}
	m.s.Schedule(at+m.mob.step, sim.PrioTopology, m.mobilityEpoch)
}

// positionAt resolves a node's position at time t: epoch-quantized through
// the mover log for mobile nodes, the static position table otherwise.
func (m *Medium) positionAt(id core.NodeID, t units.Ticks) (Position, bool) {
	if m.mob != nil {
		if e, ok := m.mob.byID[id]; ok {
			k := int(t / m.mob.step)
			e.ensure(k, m.mob.step)
			return e.log[k], true
		}
	}
	p, ok := m.sp.pos[id]
	return p, ok
}
