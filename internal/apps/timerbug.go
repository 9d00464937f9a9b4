package apps

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mote"
	"repro/internal/units"
)

// TimerBug reproduces the paper's second case study (Figure 15): a trivial
// timer-driven application whose Quanto trace revealed that TimerA1 fires
// sixteen times per second to calibrate the digital oscillator — even though
// nothing in the application needs asynchronous serial communication. The
// kernel enables DCO calibration by default, exactly as TinyOS did, so the
// "surprise" shows up unless the application explicitly disables it.
type TimerBug struct {
	World *mote.World
	Node  *mote.Node

	ActA, ActB core.Label
}

// NewTimerBug builds a single-node world (node id 32, as in the figure)
// running two LED activities. calibrate selects whether the DCO calibration
// timer is left on (the buggy default) or disabled (the fix). An optional
// base overrides the node's mote options (voltage, logging mode).
func NewTimerBug(seed uint64, calibrate bool, base ...mote.Options) *TimerBug {
	w := mote.NewWorld(seed)
	opts := mote.DefaultOptions()
	if len(base) > 0 {
		opts = base[0]
	}
	if opts.Kernel == (kernel.Options{}) {
		opts.Kernel = kernel.DefaultOptions()
	}
	opts.Kernel.CalibrateDCO = calibrate
	n := w.AddNode(32, opts)

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
