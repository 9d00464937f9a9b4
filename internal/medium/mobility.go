// Node mobility: the medium steps registered movers on a fixed epoch grid.
// Each epoch writes every mover's new position through SetPosition, which
// drops the neighbor index. The next transmission regroups the nodes into
// grid cells, once for the whole epoch in O(nodes), and each node's neighbor
// row is built the first time it sends in the epoch; an epoch with no
// transmission builds nothing. Index rows are a pure function of the
// registered receivers and their positions, so when a row is built changes
// no output.
//
// Positions are quantized to the epoch grid: a node's location during
// [k·step, (k+1)·step) is its mover's position at k·step. The quantization
// stays because it defines simulated output. Every position read outside the
// index — the CCA energy query above all — asks the mover for the start of
// the query time's epoch, never the mutable position table, so the answer is
// a pure function of (mover, time). A CCA read at a busy CPU's clock, which
// can run past the event clock, therefore sees the position of the epoch it
// falls in.
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
// Implementations must be deterministic: the medium samples positions in any
// order, possibly ahead of the event clock, so PositionAt must return the
// same value however and whenever it is sampled.
type Mover interface {
	PositionAt(t units.Ticks) Position
}

// moverEntry is one mobile node and its mover.
type moverEntry struct {
	id core.NodeID
	mv Mover
}

// mobility is the medium's mobility state.
type mobility struct {
	step   units.Ticks
	movers []moverEntry // attach order: the per-epoch update order
	byID   map[core.NodeID]Mover
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
	m.mob = &mobility{step: step, byID: make(map[core.NodeID]Mover)}
	next := (m.s.Now()/step + 1) * step
	m.s.Schedule(next, sim.PrioTopology, m.mobilityEpoch)
}

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
	m.mob.movers = append(m.mob.movers, moverEntry{id: id, mv: mv})
	m.mob.byID[id] = mv
	m.SetPosition(id, mv.PositionAt(0))
}

// mobilityEpoch relocates every mover to its position for the epoch starting
// now and re-arms itself. It runs at PrioTopology, ahead of every hardware
// and software event sharing the tick, so a transmission at the epoch tick
// already sees the new topology.
func (m *Medium) mobilityEpoch() {
	at := m.s.Now()
	epoch := at / m.mob.step * m.mob.step
	for _, e := range m.mob.movers {
		m.SetPosition(e.id, e.mv.PositionAt(epoch))
	}
	m.s.Schedule(at+m.mob.step, sim.PrioTopology, m.mobilityEpoch)
}

// positionAt resolves a node's position at time t: its mover's position at
// the start of t's epoch for mobile nodes, the static position table
// otherwise.
func (m *Medium) positionAt(id core.NodeID, t units.Ticks) (Position, bool) {
	if m.mob != nil {
		if mv, ok := m.mob.byID[id]; ok {
			return mv.PositionAt(t / m.mob.step * m.mob.step), true
		}
	}
	p, ok := m.sp.pos[id]
	return p, ok
}
