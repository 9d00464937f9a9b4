package mote

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/power"
	"repro/internal/units"
)

// busyNode generates a steady stream of log entries (a fast LED toggler).
func busyNode(t *testing.T, opts Options) (*World, *Node) {
	t.Helper()
	w := NewWorld(5)
	n := w.AddNode(1, opts)
	n.K.Boot(func() {
		tm := n.K.NewTimer(func() { n.LEDs.Toggle(0) })
		tm.StartPeriodic(20 * units.Millisecond)
	})
	return w, n
}

func TestContinuousDrainDeliversAllEntries(t *testing.T) {
	opts := DefaultOptions()
	opts.ContinuousDrain = true
	w, n := busyNode(t, opts)
	w.Run(10 * units.Second)
	w.StampEnd()

	if n.Drain == nil {
		t.Fatal("drain sink absent")
	}
	drained, rounds := n.Drain.Drained()
	if drained == 0 || rounds == 0 {
		t.Fatalf("nothing drained: %d/%d", drained, rounds)
	}
	if n.Drain.Buffered() != 0 {
		t.Errorf("%d entries still buffered after flush", n.Drain.Buffered())
	}
	// Collector holds the complete, ordered stream.
	if uint64(n.Log.Len()) != n.Trk.Entries() {
		t.Errorf("collector %d entries, tracker logged %d", n.Log.Len(), n.Trk.Entries())
	}
	var prev uint32
	for i, e := range n.Log.Entries {
		if e.Time < prev {
			t.Fatalf("entry %d out of order after draining", i)
		}
		prev = e.Time
	}
}

func TestContinuousDrainSelfAccounts(t *testing.T) {
	opts := DefaultOptions()
	opts.ContinuousDrain = true
	w, n := busyNode(t, opts)
	w.Run(20 * units.Second)
	w.StampEnd()

	sa := analysis.NewStreamAnalyzer(n.ID, n.Meter.PulseEnergy(), n.Volts, w.Dict, analysis.DefaultOptions())
	sa.RecordBatch(n.Log.Entries)
	a, err := sa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// The "Quanto" activity must show up with CPU time of its own.
	times := a.TimeByActivity()[power.ResCPU]
	var quantoUS int64
	for l, us := range times {
		if strings.HasSuffix(w.Dict.LabelName(l), ":Quanto") {
			quantoUS = us
		}
	}
	if quantoUS == 0 {
		t.Fatal("no CPU time attributed to the Quanto drain activity")
	}
	share := float64(quantoUS) / float64(a.ActiveTimeUS(power.ResCPU))
	// The paper saw the drain use 4-15% of CPU time for its applications;
	// the exact share depends on the event rate, but it must be a visible,
	// non-dominant slice.
	if share < 0.01 || share > 0.75 {
		t.Errorf("drain share of active CPU = %.3f, want a visible share", share)
	}
	t.Logf("drain used %.1f%% of active CPU time", share*100)
}

func TestContinuousDrainAnalysisStillConsistent(t *testing.T) {
	opts := DefaultOptions()
	opts.ContinuousDrain = true
	w, n := busyNode(t, opts)
	w.Run(10 * units.Second)
	w.StampEnd()
	sa := analysis.NewStreamAnalyzer(n.ID, n.Meter.PulseEnergy(), n.Volts, w.Dict, analysis.DefaultOptions())
	sa.RecordBatch(n.Log.Entries)
	a, err := sa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if a.ReconstructionError() > 0.02 {
		t.Errorf("reconstruction error = %.4f with draining", a.ReconstructionError())
	}
}
