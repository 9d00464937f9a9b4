package medium

import (
	"testing"

	"repro/internal/units"
)

// TestMoveChangesDelivery pins the end-to-end effect of a mid-run
// SetPosition: relocating a receiver out of range stops delivery, and moving
// it back restores delivery with the new distance's link strength. Each
// relocation drops the built index, and the next transmission rebuilds it.
func TestMoveChangesDelivery(t *testing.T) {
	cfg := SpatialConfig{TxRangeM: 50, TxPowerDBm: 10, Seed: 1}
	s, m, rcvs := spatialWorld(t, cfg, []Position{{}, {X: 10}})
	m.WarmNeighbors()

	m.Transmit(&Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640})
	if len(rcvs[1].frames) != 1 {
		t.Fatalf("in-range receiver heard %d frames, want 1", len(rcvs[1].frames))
	}
	s.Run(1000)

	m.SetPosition(2, Position{X: 500})
	m.Transmit(&Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640})
	if len(rcvs[1].frames) != 1 {
		t.Fatal("out-of-range receiver still hears frames after SetPosition")
	}
	s.Run(2000)

	m.SetPosition(2, Position{X: 20})
	m.Transmit(&Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640})
	if len(rcvs[1].frames) != 2 {
		t.Fatal("receiver moved back into range hears nothing")
	}
	// The rebuilt row carries the link strength of the new geometry.
	lo, hi := m.sp.nbr.row(1)
	if hi-lo != 1 {
		t.Fatalf("node 1 has %d neighbors, want 1", hi-lo)
	}
	if got, want := m.sp.nbr.rssi[lo], cfg.withDefaults().RSSI(20); got != want {
		t.Fatalf("rssi after SetPosition = %v, want %v", got, want)
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
