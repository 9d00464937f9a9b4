package medium

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

// rowOf extracts node id's live neighbor row as value structs, for
// comparison across index layouts.
func rowOf(ix *nbrIndex, id core.NodeID) []neighbor {
	lo, hi := ix.row(id)
	out := make([]neighbor, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, neighbor{
			id: ix.ids[k], rcv: ix.rcvs[k], rssi: ix.rssi[k], prr: ix.prr[k],
		})
	}
	return out
}

// TestMoveMatchesRebuild is the incremental-maintenance property test: after
// any sequence of single-node moves, every node's neighbor row must be
// bit-identical to what a from-scratch rebuild over the same positions
// produces — same ids in the same order, same RSSI, same PRR.
func TestMoveMatchesRebuild(t *testing.T) {
	const n = 60
	cfg := SpatialConfig{TxRangeM: 40, Seed: 3}
	_, m, _ := spatialWorld(t, cfg, PlaceRandomGeometric(n, 150, 11))
	m.WarmNeighbors()

	// A deterministic walk mixing small in-cell drifts, cell-crossing hops,
	// and long teleports across the whole area (grid maintenance has to
	// survive arbitrary jump sizes).
	rng := sim.NewRNG(99)
	for step := 0; step < 200; step++ {
		id := core.NodeID(rng.Intn(n) + 1)
		var p Position
		switch step % 3 {
		case 0: // small drift, usually same cell
			old := m.sp.pos[id]
			p = Position{X: old.X + rng.Float64()*6 - 3, Y: old.Y + rng.Float64()*6 - 3}
		case 1: // neighbor-cell hop
			old := m.sp.pos[id]
			p = Position{X: old.X + rng.Float64()*80 - 40, Y: old.Y + rng.Float64()*80 - 40}
		default: // teleport anywhere
			p = Position{X: rng.Float64() * 150, Y: rng.Float64() * 150}
		}
		m.Move(id, p)

		// Reference: a fresh build over the incremental run's positions.
		ref := New(sim.New())
		ref.EnableSpatial(cfg)
		for i := 0; i < n; i++ {
			nid := core.NodeID(i + 1)
			ref.Register(&fakeReceiver{node: nid})
			ref.SetPosition(nid, m.sp.pos[nid])
		}
		ref.WarmNeighbors()

		for i := 0; i < n; i++ {
			nid := core.NodeID(i + 1)
			got := rowOf(m.sp.nbr, nid)
			want := rowOf(ref.sp.nbr, nid)
			if len(got) != len(want) {
				t.Fatalf("step %d: node %d row length %d, want %d", step, nid, len(got), len(want))
			}
			for k := range got {
				if got[k].id != want[k].id || got[k].rssi != want[k].rssi || got[k].prr != want[k].prr {
					t.Fatalf("step %d: node %d entry %d = %+v, want %+v", step, nid, k, got[k], want[k])
				}
			}
		}
		if m.sp.nbr.live < 0 || int(m.sp.nbr.live) > len(m.sp.nbr.ids) {
			t.Fatalf("step %d: live counter %d out of range (arena %d)", step, m.sp.nbr.live, len(m.sp.nbr.ids))
		}
	}
}

// TestMoveCompaction pins that the arena compacts once superseded segments
// dominate, instead of growing without bound under sustained mobility.
func TestMoveCompaction(t *testing.T) {
	const n = 150 // dense enough that the arena passes the compaction floor
	cfg := SpatialConfig{TxRangeM: 40, Seed: 3}
	_, m, _ := spatialWorld(t, cfg, PlaceRandomGeometric(n, 120, 7))
	m.WarmNeighbors()
	if len(m.sp.nbr.ids) <= moveCompactMin {
		t.Skipf("arena too small (%d) to exercise compaction", len(m.sp.nbr.ids))
	}
	rng := sim.NewRNG(5)
	for step := 0; step < 1200; step++ {
		id := core.NodeID(rng.Intn(n) + 1)
		m.Move(id, Position{X: rng.Float64() * 120, Y: rng.Float64() * 120})
		ix := m.sp.nbr
		if garbage := len(ix.ids) - int(ix.live); len(ix.ids) > moveCompactMin && garbage > len(ix.ids) {
			t.Fatalf("step %d: impossible garbage accounting: arena %d, live %d", step, len(ix.ids), ix.live)
		}
	}
	ix := m.sp.nbr
	if len(ix.ids) > moveCompactMin && int(ix.live)*4 < len(ix.ids) {
		t.Fatalf("arena never compacted: %d entries, %d live", len(ix.ids), ix.live)
	}
}

// TestMoveChangesDelivery pins the end-to-end effect: relocating a receiver
// out of range stops delivery, moving it back restores delivery — without
// any full index rebuild in between.
func TestMoveChangesDelivery(t *testing.T) {
	cfg := SpatialConfig{TxRangeM: 50, TxPowerDBm: 10, Seed: 1}
	s, m, rcvs := spatialWorld(t, cfg, []Position{{}, {X: 10}})
	m.WarmNeighbors()

	m.Transmit(&Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640})
	if len(rcvs[1].frames) != 1 {
		t.Fatalf("in-range receiver heard %d frames, want 1", len(rcvs[1].frames))
	}
	s.Run(1000)

	m.Move(2, Position{X: 500})
	m.Transmit(&Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640})
	if len(rcvs[1].frames) != 1 {
		t.Fatal("out-of-range receiver still hears frames after Move")
	}
	s.Run(2000)

	m.Move(2, Position{X: 20})
	m.Transmit(&Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640})
	if len(rcvs[1].frames) != 2 {
		t.Fatal("receiver moved back into range hears nothing")
	}
}

// driftEast moves east at a fixed speed from a start position.
type driftEast struct {
	start Position
	mps   float64
}

func (d driftEast) PositionAt(t units.Ticks) Position {
	return Position{X: d.start.X + d.mps*float64(t)/1e6, Y: d.start.Y}
}

// TestMobilityEpochStepping pins the mobility contract: positions advance on
// the epoch grid (quantized, not continuous), the neighbor index follows,
// and the position a CCA-time query sees matches the index epoch for any
// query time — including times at and just past an epoch boundary.
func TestMobilityEpochStepping(t *testing.T) {
	cfg := SpatialConfig{TxRangeM: 50, TxPowerDBm: 10, Seed: 1}
	s, m, rcvs := spatialWorld(t, cfg, []Position{{}, {X: 10}})
	step := 250 * units.Millisecond
	m.EnableMobility(step)
	// Node 2 walks east at 40 m/s (fast, so range crossings happen within a
	// few epochs): in range (10..20 m) for epochs 0..3, out past 50 m from
	// epoch 5 (60 m) on.
	m.SetMover(2, driftEast{start: Position{X: 10}, mps: 40})

	if got, _ := m.positionAt(2, 0); got != (Position{X: 10}) {
		t.Fatalf("epoch-0 position = %v", got)
	}
	// Quantization: mid-epoch queries see the epoch-start position.
	if got, _ := m.positionAt(2, step-1); got != (Position{X: 10}) {
		t.Fatalf("mid-epoch position = %v, want epoch-0 value", got)
	}
	if got, _ := m.positionAt(2, step); got != (Position{X: 20}) {
		t.Fatalf("epoch-1 position = %v, want x=20", got)
	}

	// Delivery before the range crossing, silence after.
	m.Transmit(&Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640})
	if len(rcvs[1].frames) != 1 {
		t.Fatal("mover in range at epoch 0 heard nothing")
	}
	s.Run(6 * step) // epochs 1..6 execute; mover is at x=70 now
	m.Transmit(&Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640})
	if len(rcvs[1].frames) != 1 {
		t.Fatal("mover past range still hears frames")
	}
	if got, _ := m.positionAt(2, 6*step); got != (Position{X: 70}) {
		t.Fatalf("epoch-6 position = %v, want x=70", got)
	}
	// The position log answers ahead of the event clock too (what a CCA
	// read at a busy CPU's clock needs) without changing later answers.
	if got, _ := m.positionAt(2, 20*step); got != (Position{X: 210}) {
		t.Fatalf("future position = %v, want x=210", got)
	}
	if got, _ := m.positionAt(2, 7*step); got != (Position{X: 80}) {
		t.Fatalf("epoch-7 position = %v after future read, want x=80", got)
	}
	// Static nodes resolve through the plain position table.
	if got, ok := m.positionAt(1, 3*step); !ok || got != (Position{}) {
		t.Fatalf("static position = %v ok=%v", got, ok)
	}
}

// TestMoveRSSIMatchesDistance spot-checks that a patched row carries link
// strengths recomputed from the new geometry, not stale values.
func TestMoveRSSIMatchesDistance(t *testing.T) {
	cfg := SpatialConfig{TxRangeM: 50, TxPowerDBm: 10, Seed: 1}
	_, m, _ := spatialWorld(t, cfg, []Position{{}, {X: 10}})
	m.WarmNeighbors()
	m.Move(2, Position{X: 30})
	lo, hi := m.sp.nbr.row(1)
	if hi-lo != 1 {
		t.Fatalf("node 1 has %d neighbors, want 1", hi-lo)
	}
	want := cfg.withDefaults().RSSI(30)
	if got := m.sp.nbr.rssi[lo]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("patched rssi = %v, want %v", got, want)
	}
}
