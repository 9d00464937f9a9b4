package apps

import (
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/scenario"
	"repro/internal/units"
)

// timerBugNode is the case study's single node, id 32 as in Figure 15.
const timerBugNode core.NodeID = 32

// TimerBug reproduces the paper's second case study (Figure 15): a trivial
// timer-driven application whose Quanto trace revealed that TimerA1 fires
// sixteen times per second to calibrate the digital oscillator — even though
// nothing in the application needs asynchronous serial communication.
// TinyOS enabled DCO calibration by default; the simulated kernel leaves it
// off unless the spec sets CalibrateDCO, which recreates the surprise.
type TimerBug struct {
	World *mote.World
	Node  *mote.Node

	ActA, ActB core.Label
}

// NewTimerBug builds the single-node world the spec describes into the
// empty world w (node id 32, as in the figure) running two LED activities.
// The spec's CalibrateDCO selects whether the DCO calibration timer runs
// (the TinyOS default that surprised its developers) or not (the fix).
func NewTimerBug(spec scenario.Spec, w *mote.World) *TimerBug {
	n := w.AddNode(timerBugNode, spec.NodeOptions(timerBugNode))

	tb := &TimerBug{World: w, Node: n}
	k := n.K
	tb.ActA = k.DefineActivity("ActA")
	tb.ActB = k.DefineActivity("ActB")

	k.Boot(func() {
		ta := k.NewTimer(func() { n.LEDs.Toggle(0) })
		tb2 := k.NewTimer(func() { n.LEDs.Toggle(2) })
		k.CPUAct.Set(tb.ActA)
		ta.StartPeriodic(250 * units.Millisecond)
		k.CPUAct.Set(tb.ActB)
		tb2.StartPeriodic(500 * units.Millisecond)
		k.CPUAct.SetIdle()
	})
	return tb
}

// Run advances the world and stamps the end.
func (t *TimerBug) Run(d units.Ticks) {
	t.World.Run(d)
	t.World.StampEnd()
}

// CalibrationRate counts int_TIMERA1 activity entries in the log and returns
// the observed firing rate in hertz — the number Quanto surprised the TinyOS
// developers with (16 Hz).
func (t *TimerBug) CalibrationRate() float64 {
	entries := t.Node.Log.Entries
	if len(entries) < 2 {
		return 0
	}
	var fires int
	var target core.Label
	//quanto:ordered at most one label carries this (name, origin) pair, so the search result is order-independent
	for l, name := range t.World.Dict.Activities {
		if name == "int_TIMERA1" && l.Origin() == t.Node.ID {
			target = l
		}
	}
	if target == 0 {
		return 0
	}
	for _, e := range entries {
		if e.Type == core.EntryActivitySet && core.Label(e.Val) == target {
			fires++
		}
	}
	span := units.Ticks(int64(entries[len(entries)-1].Time) - int64(entries[0].Time))
	if span <= 0 {
		return 0
	}
	return float64(fires) / span.Seconds()
}
