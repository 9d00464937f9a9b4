package apps

import (
	"cmp"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/medium"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/units"
)

// LPL implements low-power listening (Section 4.3's first case study): the
// radio sleeps almost always and wakes periodically to check the channel for
// energy. If the check is clean the radio returns to sleep; if energy is
// detected the receiver stays on for a hold time waiting for a packet that —
// under 802.11 interference — never comes.
type LPL struct {
	World *mote.World
	Node  *mote.Node

	Act core.Label

	// A wake-up's timers and its TurnOn continuation, made once at boot
	// and re-armed by every wake-up; awake is set from a wake-up until it
	// turns the radio off.
	settle, hold *kernel.Timer
	listenFn     func()
	awake        bool

	wakeups        uint64
	falsePositives uint64
}

// The LPL receiver's timing, and the interferer's bursts.
const (
	// lplReceiveCheck is how long a clean check keeps the receiver on:
	// long enough to catch a wake-up preamble.
	lplReceiveCheck = 9400 * units.Microsecond
	// lplFalsePositiveHold is how long the receiver stays on after it
	// detects energy: "the CPU keeps the radio on for about 100 ms, and
	// turns it off when the timer expires and no packet was received"
	// (Figure 14).
	lplFalsePositiveHold = 100 * units.Millisecond
	// wifiBurst is the interferer's mean burst length.
	wifiBurst = 5 * units.Millisecond
)

// NewLPL builds the one-node world the spec describes into the empty world
// w, at the paper's 3.35 V unless Volts is set, listening on Channel
// (default 26; 17 overlaps 802.11b channel 6). The radio wakes every
// CheckPeriodUS (default 500 ms, the paper's sampling period), stays on
// 9.4 ms during a clean check, and 100 ms after detecting energy. An
// 802.11b access point on channel 6 interferes, sending 5 ms bursts
// separated by WiFiGapUS gaps (default 23 ms): a ~17.9% channel occupancy,
// matching the paper's 17.8% false-positive rate. A node on a channel that
// channel 6 does not overlap, such as the default 26, never hears it. A
// wake-up that finds the previous one still holding the radio on does
// nothing and is not counted.
func NewLPL(spec scenario.Spec, w *mote.World) *LPL {
	opts := spec.NodeOptions(1)
	opts.Volts = units.Volts(cmp.Or(spec.Volts, 3.35))
	opts.Radio = true
	opts.RadioConfig = radio.Config{Channel: cmp.Or(spec.Channel, defaultChannel)}
	n := w.AddNode(1, opts)

	gap := cmp.Or(units.Ticks(spec.WiFiGapUS), 23*units.Millisecond)
	w.Medium.AddWiFi(medium.NewWiFiSource(6, wifiBurst, gap, spec.Seed^0xBEEF))

	l := &LPL{World: w, Node: n}
	k := n.K
	l.Act = k.DefineActivity("LPL")

	checkPeriod := cmp.Or(units.Ticks(spec.CheckPeriodUS), 500*units.Millisecond)
	k.Boot(func() {
		k.CPUAct.Set(l.Act)
		check := k.NewTimer(l.check)
		// Created after the check timer, the settle and hold timers rank
		// after it among same-tick fires, as the per-wake-up timers they
		// replace did.
		l.settle = k.NewTimer(l.settled)
		l.hold = k.NewTimer(l.sleep)
		l.listenFn = l.listen
		check.StartPeriodic(checkPeriod)
		k.CPUAct.SetIdle()
	})
	return l
}

// check is one wake-up: power the radio, listen briefly, sample the channel,
// and either sleep again or hold the receiver on for the false-positive
// window. A wake-up that finds the previous one still holding the radio
// (a check period shorter than the hold) does nothing: its settle would
// sample a radio the hold is about to turn off.
func (l *LPL) check() {
	if l.awake {
		return
	}
	l.awake = true
	l.wakeups++
	l.Node.Radio.TurnOn(l.listenFn)
}

// listen runs once the radio is on: listen until the settle timer fires.
func (l *LPL) listen() {
	l.Node.Radio.StartListening()
	l.settle.StartOneShot(lplReceiveCheck)
}

// settled samples the channel at the end of the receive check.
func (l *LPL) settled() {
	if !l.Node.Radio.SampleCCA() {
		l.sleep()
		return
	}
	// Energy detected: keep listening for a packet until the timeout
	// expires.
	l.falsePositives++
	l.hold.StartOneShot(lplFalsePositiveHold)
}

// sleep turns the radio off, ending the wake-up.
func (l *LPL) sleep() {
	l.Node.Radio.TurnOff()
	l.awake = false
}

// Stats returns wake-up and false-positive counts.
func (l *LPL) Stats() (wakeups, falsePositives uint64) {
	return l.wakeups, l.falsePositives
}

// FalsePositiveRate returns the fraction of checks that detected energy.
func (l *LPL) FalsePositiveRate() float64 {
	if l.wakeups == 0 {
		return 0
	}
	return float64(l.falsePositives) / float64(l.wakeups)
}

// Run advances the world and stamps the end.
func (l *LPL) Run(d units.Ticks) {
	l.World.Run(d)
	l.World.StampEnd()
}
