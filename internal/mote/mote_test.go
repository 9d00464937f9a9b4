package mote

import (
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/units"
)

func TestSingleNodeAssembly(t *testing.T) {
	w, n := NewSingleNode(1)
	if n.K == nil || n.Board == nil || n.Meter == nil || n.Log == nil {
		t.Fatal("incomplete node")
	}
	if n.Scope != nil {
		t.Error("the oscilloscope is opt-in: AddNode must not attach one")
	}
	if n.LEDs == nil || n.Sensor == nil || n.Flash == nil {
		t.Fatal("missing drivers")
	}
	if n.Radio != nil || n.AM != nil {
		t.Error("radio should be absent by default")
	}
	if w.Node(1) != n || w.Node(9) != nil {
		t.Error("Node lookup broken")
	}
}

// TestAttachScopeTimingInvariant attaches the oscilloscope at the two ends
// of assembly — right after AddNode, and after the app's boot wiring just
// before Run — and requires the same waveform from both. Assembly happens
// at t=0, where the bench keeps only each instant's final draw, which is
// what Board.Listen replays to a late listener.
func TestAttachScopeTimingInvariant(t *testing.T) {
	run := func(early bool) *Node {
		w := NewWorld(3)
		opts := DefaultOptions()
		opts.Radio = true
		opts.BatteryUAH = 1000
		n := w.AddNode(1, opts)
		if early {
			w.AttachScope(n)
		}
		n.K.Boot(func() {
			n.LEDs.On(2) // more edges at t=0, after assembly
			n.Radio.TurnOn(nil)
			tm := n.K.NewTimer(func() { n.LEDs.Toggle(0) })
			tm.StartPeriodic(50 * units.Millisecond)
		})
		if !early {
			w.AttachScope(n)
		}
		if w.AttachScope(n) != n.Scope {
			t.Fatal("a second AttachScope must return the attached bench")
		}
		w.Run(2 * units.Second)
		w.StampEnd()
		return n
	}
	early, late := run(true), run(false)
	a, b := early.Scope.Steps(), late.Scope.Steps()
	if len(a) < 40 {
		t.Fatalf("early scope recorded %d steps, want the LED toggles", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("early scope has %d steps, late %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: early %+v, late %+v", i, a[i], b[i])
		}
	}
	if a[0].T != 0 {
		t.Errorf("first step at %d, want the t=0 assembly draw", a[0].T)
	}
}

func TestIdleNodeDrawsBaselineOnly(t *testing.T) {
	w, n := NewSingleNode(1)
	w.Run(10 * units.Second)
	w.StampEnd()
	// With nothing running, the node draws the board baseline plus the
	// flash chip's 9 uA power-down trickle (Table 1).
	idle := power.BaselineMicroAmps + power.CalibratedDraws().Draw(power.ResFlash, power.FlashPowerDown)
	wantUJ := float64(units.Energy(idle, n.Volts, 10*units.Second))
	gotUJ := n.Meter.EnergyMicroJoules()
	if diff := gotUJ - wantUJ; diff < -50 || diff > 50 {
		t.Errorf("idle energy = %.1f uJ, want ~%.1f", gotUJ, wantUJ)
	}
}

func TestWorldNodeLogsAndStampEnd(t *testing.T) {
	w := NewWorld(5)
	optsA := DefaultOptions()
	optsA.Radio = true
	optsA.RadioConfig = radio.Config{Channel: 26}
	w.AddNode(1, optsA)
	w.AddNode(2, DefaultOptions())
	w.Run(units.Second)
	w.StampEnd()
	if len(w.Nodes) != 2 {
		t.Fatalf("world has %d nodes", len(w.Nodes))
	}
	for _, n := range w.Nodes {
		entries := n.Log.Entries
		if len(entries) == 0 {
			t.Fatalf("node %d has empty log", n.ID)
		}
		if last := entries[len(entries)-1]; last.Type != core.EntryMarker {
			t.Errorf("node %d log does not end with the end marker", n.ID)
		}
	}
}

func TestPerNodeMetersAreIndependent(t *testing.T) {
	w := NewWorld(3)
	a := w.AddNode(1, DefaultOptions())
	b := w.AddNode(2, DefaultOptions())
	// Only node 1 lights an LED.
	a.K.Boot(func() {
		a.LEDs.On(0)
	})
	w.Run(5 * units.Second)
	ea := a.Meter.EnergyMicroJoules()
	eb := b.Meter.EnergyMicroJoules()
	if ea <= eb {
		t.Errorf("node with LED on used %.1f uJ <= idle node's %.1f uJ", ea, eb)
	}
}

func TestVoltageAffectsEnergyNotCurrent(t *testing.T) {
	run := func(volts units.Volts) float64 {
		w := NewWorld(9)
		opts := DefaultOptions()
		opts.Volts = volts
		n := w.AddNode(1, opts)
		n.K.Boot(func() { n.LEDs.On(2) })
		w.Run(2 * units.Second)
		return n.Meter.EnergyMicroJoules()
	}
	e30 := run(3.0)
	e335 := run(3.35)
	if e335 <= e30 {
		t.Errorf("energy at 3.35V (%.1f) should exceed 3.0V (%.1f)", e335, e30)
	}
}

func TestDictionarySharedAcrossNodes(t *testing.T) {
	w := NewWorld(2)
	a := w.AddNode(1, DefaultOptions())
	b := w.AddNode(4, DefaultOptions())
	la := a.K.DefineActivity("AppA")
	lb := b.K.DefineActivity("AppB")
	if w.Dict.LabelName(la) != "1:AppA" || w.Dict.LabelName(lb) != "4:AppB" {
		t.Errorf("names = %q, %q", w.Dict.LabelName(la), w.Dict.LabelName(lb))
	}
}
