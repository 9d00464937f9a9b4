package mote

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

// TestWorldMergedStreamsAllNodes checks the k-way merged stream is
// time-ordered and complete across nodes.
func TestWorldMergedStreamsAllNodes(t *testing.T) {
	w := NewWorld(3)
	a := w.AddNode(1, DefaultOptions())
	b := w.AddNode(2, DefaultOptions())
	a.K.Boot(func() {
		tm := a.K.NewTimer(func() { a.LEDs.Toggle(0) })
		tm.StartPeriodic(70 * units.Millisecond)
	})
	b.K.Boot(func() {
		tm := b.K.NewTimer(func() { b.LEDs.Toggle(1) })
		tm.StartPeriodic(110 * units.Millisecond)
	})
	w.Run(2 * units.Second)
	w.StampEnd()

	m, err := w.Merged()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var prev int64
	seen := make(map[core.NodeID]int)
	for {
		s, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.TimeUS < prev {
			t.Fatalf("merged stream out of order at entry %d: %d < %d", count, s.TimeUS, prev)
		}
		prev = s.TimeUS
		seen[s.Node]++
		count++
	}
	if count != a.Log.Len()+b.Log.Len() {
		t.Errorf("merged %d entries, want %d", count, a.Log.Len()+b.Log.Len())
	}
	if seen[1] != a.Log.Len() || seen[2] != b.Log.Len() {
		t.Errorf("per-node counts %v, want %d/%d", seen, a.Log.Len(), b.Log.Len())
	}
}
