package apps

import (
	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/mote"
	"repro/internal/radio"
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
	cfg LPLConfig

	wakeups        uint64
	falsePositives uint64
}

// LPLConfig parameterizes the duty-cycle regime.
type LPLConfig struct {
	// Channel is the 802.15.4 channel to listen on (17 = overlapping
	// 802.11b channel 6; 26 = clear).
	Channel int
	// CheckPeriod is the sleep interval between channel checks (the paper
	// samples every 500 ms).
	CheckPeriod units.Ticks
	// ReceiveCheck is how long the receiver stays on during a clean check,
	// long enough to catch a wake-up preamble.
	ReceiveCheck units.Ticks
	// FalsePositiveHold is how long the receiver stays on after detecting
	// energy ("the CPU keeps the radio on for about 100 ms, and turns it
	// off when the timer expires and no packet was received" — Figure 14).
	FalsePositiveHold units.Ticks
	// Volts is the supply voltage; the paper's LPL mote ran at 3.35 V.
	Volts units.Volts
	// WiFi enables the interfering 802.11b access point on channel 6.
	WiFi bool
	// WiFiBurst/WiFiGap shape the interferer's traffic; defaults give a
	// ~17.9% channel occupancy matching the paper's 17.8% false-positive
	// rate.
	WiFiBurst, WiFiGap units.Ticks
	// Base, when set, seeds the node's mote options (kernel, logging mode)
	// before Volts and the radio wiring are applied; nil selects
	// mote.DefaultOptions.
	Base *mote.Options
}

// DefaultLPLConfig reproduces the paper's experiment on the given channel.
func DefaultLPLConfig(channel int) LPLConfig {
	return LPLConfig{
		Channel:           channel,
		CheckPeriod:       500 * units.Millisecond,
		ReceiveCheck:      9400,
		FalsePositiveHold: 100 * units.Millisecond,
		Volts:             3.35,
		WiFi:              true,
		WiFiBurst:         5 * units.Millisecond,
		WiFiGap:           23 * units.Millisecond,
	}
}

// NewLPL builds a one-node world with the interferer attached.
func NewLPL(seed uint64, cfg LPLConfig) *LPL {
	if cfg.CheckPeriod == 0 {
		cfg.CheckPeriod = 500 * units.Millisecond
	}
	w := mote.NewWorld(seed)
	opts := mote.DefaultOptions()
	if cfg.Base != nil {
		opts = *cfg.Base
	}
	opts.Volts = cfg.Volts
	opts.Radio = true
	opts.RadioConfig = radio.Config{Channel: cfg.Channel}
	n := w.AddNode(1, opts)

	if cfg.WiFi {
		w.Medium.AddWiFi(medium.NewWiFiSource(6, cfg.WiFiBurst, cfg.WiFiGap, seed^0xBEEF))
	}

	l := &LPL{World: w, Node: n, cfg: cfg}
	k := n.K
	l.Act = k.DefineActivity("LPL")

	k.Boot(func() {
		k.CPUAct.Set(l.Act)
		check := k.NewTimer(func() { l.check() })
		check.StartPeriodic(cfg.CheckPeriod)
		k.CPUAct.SetIdle()
	})
	return l
}

// check is one wake-up: power the radio, listen briefly, sample the channel,
// and either sleep again or hold the receiver on for the false-positive
// window.
func (l *LPL) check() {
	n := l.Node
	k := n.K
	l.wakeups++
	n.Radio.TurnOn(func() {
		n.Radio.StartListening()
		settle := k.NewTimer(func() {
			busy := n.Radio.SampleCCA()
			if !busy {
				n.Radio.TurnOff()
				return
			}
			// Energy detected: keep listening for a packet until the
			// timeout expires.
			l.falsePositives++
			hold := k.NewTimer(func() {
				n.Radio.TurnOff()
			})
			hold.StartOneShot(l.cfg.FalsePositiveHold)
		})
		settle.StartOneShot(l.cfg.ReceiveCheck)
	})
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
