// Package apps contains the applications the paper uses to evaluate Quanto:
// Blink and Bounce (Section 4.2), the sense-and-send application of
// Figure 7, and the three case studies of Section 4.3 (low-power listening
// under 802.11 interference, the surprise DCO-calibration timer, and
// DMA-versus-interrupt radio communication), plus the multihop relay of
// Section 5.3.
//
// A scenario.Spec is the only configuration: every app but Blink is built
// by a constructor that takes the Spec and resolves each of the app's
// defaults from its zero fields, and register.go registers each one with
// the scenario registry. Blink wires onto a node the caller built.
package apps

import (
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/units"
)

// Blink is TinyOS's hello-world: three independent timers with 1, 2 and 4 s
// intervals toggle the red, green and blue LEDs, cycling through all eight
// LED combinations every 8 seconds. Instrumented for Quanto, each LED's
// work runs under its own activity (Red, Green, Blue), matching
// Section 4.2.1.
type Blink struct {
	Node *mote.Node

	Red, Green, Blue core.Label

	toggles [3]uint64
}

// NewBlink wires Blink onto a node; timers start at boot.
func NewBlink(n *mote.Node) *Blink {
	b := &Blink{Node: n}
	k := n.K
	b.Red = k.DefineActivity("Red")
	b.Green = k.DefineActivity("Green")
	b.Blue = k.DefineActivity("Blue")

	k.Boot(func() {
		// "Paint" the CPU before starting each timer so the virtual timer
		// subsystem captures the right activity and restores it on every
		// fire (Figure 7's pattern).
		t0 := k.NewTimer(func() { b.toggles[0]++; n.LEDs.Toggle(0) })
		t1 := k.NewTimer(func() { b.toggles[1]++; n.LEDs.Toggle(1) })
		t2 := k.NewTimer(func() { b.toggles[2]++; n.LEDs.Toggle(2) })

		k.CPUAct.Set(b.Red)
		t0.StartPeriodic(1 * units.Second)
		k.CPUAct.Set(b.Green)
		t1.StartPeriodic(2 * units.Second)
		k.CPUAct.Set(b.Blue)
		t2.StartPeriodic(4 * units.Second)
		k.CPUAct.SetIdle()
	})
	return b
}

// Toggles reports how many times each LED was toggled.
func (b *Blink) Toggles() [3]uint64 { return b.toggles }

// RunBlink builds a single-node world, runs Blink for the given duration,
// and stamps the end of the trace. It returns the world, node and app for
// analysis; the node carries an oscilloscope, so callers can check the
// analysis against the exact waveform. The paper's canonical run is 48
// seconds.
func RunBlink(seed uint64, duration units.Ticks) (*mote.World, *mote.Node, *Blink) {
	w := mote.NewWorld(seed)
	n := w.AddNode(1, mote.DefaultOptions())
	w.AttachScope(n)
	b := NewBlink(n)
	w.Run(duration)
	w.StampEnd()
	return w, n, b
}
