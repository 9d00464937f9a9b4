package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

// lplWindow matches the paper's data collection: five 14-second periods.
const (
	lplPeriods    = 5
	lplPeriodSecs = 14
)

// lplRun executes the LPL workload on one channel for the full collection
// window — a declarative scenario over the registry — and returns the app
// plus its analysis.
func lplRun(seed uint64, channel int) (*apps.LPL, *analysis.Analysis, error) {
	in, err := runScenario(scenario.Spec{
		App:        "lpl",
		Seed:       seed,
		Channel:    channel,
		DurationUS: int64(lplPeriods * lplPeriodSecs * units.Second),
	})
	if err != nil {
		return nil, nil, err
	}
	l := in.App.(*apps.LPL)
	a, err := analyzeNode(l.World, l.Node)
	if err != nil {
		return nil, nil, err
	}
	return l, a, nil
}

// Figure13 reproduces the 802.11 interference study: cumulative energy over
// time, radio duty cycle, false-positive rate and average power for
// 802.15.4 channel 17 (overlapping 802.11b channel 6) versus channel 26
// (clear).
func Figure13(seed uint64) (*Report, error) {
	r := newReport("fig13", "802.11b/g interference on low-power listening (ch 17 vs ch 26)")
	noisy, aN, err := lplRun(seed, 17)
	if err != nil {
		return nil, err
	}
	clean, aC, err := lplRun(seed, 26)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	sb.WriteString("Cumulative energy (mJ) over one 14 s period:\n")
	fmt.Fprintf(&sb, "%-8s %-12s %-12s\n", "t(s)", "channel 17", "channel 26")
	for t := int64(0); t <= 14; t += 2 {
		us := t * 1e6
		eN := cumulativeEnergyUJ(aN, us)
		eC := cumulativeEnergyUJ(aC, us)
		fmt.Fprintf(&sb, "%-8d %-12.2f %-12.2f\n", t, eN/1000, eC/1000)
	}

	dutyN := float64(aN.ActiveTimeUS(power.ResRadioReg)) / float64(aN.Span())
	dutyC := float64(aC.ActiveTimeUS(power.ResRadioReg)) / float64(aC.Span())
	powN := aN.AveragePowerMW()
	powC := aC.AveragePowerMW()
	fpN := noisy.FalsePositiveRate()
	fpC := clean.FalsePositiveRate()

	fmt.Fprintf(&sb, "\n%-24s %12s %12s %12s\n", "", "ch 17", "ch 26", "paper 17/26")
	fmt.Fprintf(&sb, "%-24s %11.2f%% %11.2f%%  17.8%% / 0%%\n", "False positives", fpN*100, fpC*100)
	fmt.Fprintf(&sb, "%-24s %11.2f%% %11.2f%%  5.58%% / 2.22%%\n", "Radio duty cycle", dutyN*100, dutyC*100)
	fmt.Fprintf(&sb, "%-24s %11.3f %12.3f   1.43 / 0.919 mW\n", "Average power (mW)", powN, powC)
	listenMA := radioListenPowerMW(aN) / float64(noisy.Node.Volts)
	fmt.Fprintf(&sb, "\nListen-mode radio draw from regression: %.2f mA (paper: 18.46 mA at 3.35 V)\n", listenMA)

	r.Text = sb.String()
	r.Values["fp17"] = fpN
	r.Values["fp26"] = fpC
	r.Values["duty17"] = dutyN
	r.Values["duty26"] = dutyC
	r.Values["power17_mW"] = powN
	r.Values["power26_mW"] = powC
	r.Values["power_ratio"] = powN / powC
	return r, nil
}

// radioListenPowerMW sums the fitted draws of the three radio predictors
// active while listening (regulator on, control path idle, receive path
// listening). They switch nearly in lockstep during LPL wake-ups, so the
// regression can only pin down their sum — reporting them together is the
// meaningful number, and matches what the paper's single "listen mode"
// figure represents.
func radioListenPowerMW(a *analysis.Analysis) float64 {
	var total float64
	for _, p := range []analysis.Predictor{
		{Res: power.ResRadioReg, State: power.RadioRegOn},
		{Res: power.ResRadioCtl, State: power.RadioCtlIdle},
		{Res: power.ResRadioRx, State: power.RadioRxListen},
	} {
		total += a.Reg.PowerMW[p]
	}
	return total
}

// cumulativeEnergyUJ integrates the measured pulses up to t (microseconds
// from trace start).
func cumulativeEnergyUJ(a *analysis.Analysis, t int64) float64 {
	var uj float64
	for _, iv := range a.Intervals {
		if iv.Start >= t {
			break
		}
		if iv.End <= t {
			uj += iv.EnergyUJ(a.PulseUJ)
			continue
		}
		frac := float64(t-iv.Start) / float64(iv.Duration())
		uj += iv.EnergyUJ(a.PulseUJ) * frac
	}
	return uj
}

// Figure14 details one normal LPL wake-up and one false-positive detection
// on the interfered channel: the radio's power envelope and the CPU's
// activities (VTimer scheduling the wake-ups, the receive proxy that never
// binds to a real activity).
func Figure14(seed uint64) (*Report, error) {
	r := newReport("fig14", "LPL wake-up and false-positive detail (channel 17)")
	l, a, err := lplRun(seed, 17)
	if err != nil {
		return nil, err
	}

	// Classify each radio-regulator on-window by length: a clean check is
	// ~11 ms, a false positive holds for ~100 ms.
	type win struct{ start, end int64 }
	var normal, fp *win
	for _, seg := range a.States[power.ResRadioReg] {
		if seg.State != power.RadioRegOn {
			continue
		}
		d := seg.End - seg.Start
		if d < int64(30*units.Millisecond) && normal == nil {
			normal = &win{seg.Start, seg.End}
		}
		if d >= int64(60*units.Millisecond) && fp == nil {
			fp = &win{seg.Start, seg.End}
		}
		if normal != nil && fp != nil {
			break
		}
	}

	resources := []core.ResourceID{power.ResCPU, power.ResRadioRx}
	var sb strings.Builder
	if normal != nil {
		lo, hi := normal.start-2000, normal.end+4000
		fmt.Fprintf(&sb, "Normal wake-up (radio on %.1f ms):\n", float64(normal.end-normal.start)/1000)
		sb.WriteString(analysis.RenderGantt(a.ActivityRows(resources, lo, hi), lo, hi, 96))
		r.Values["normal_ms"] = float64(normal.end-normal.start) / 1000
	}
	if fp != nil {
		lo, hi := fp.start-2000, fp.end+4000
		fmt.Fprintf(&sb, "\nFalse positive: energy detected, radio held on %.1f ms:\n", float64(fp.end-fp.start)/1000)
		sb.WriteString(analysis.RenderGantt(a.ActivityRows(resources, lo, hi), lo, hi, 96))
		r.Values["fp_ms"] = float64(fp.end-fp.start) / 1000
	}

	rxMW := radioListenPowerMW(a)
	fmt.Fprintf(&sb, "\nRadio power while listening: %.1f mW (paper: 61.8 mW at 3.35 V)\n", rxMW)
	cpuMW := a.Reg.PowerMW[analysis.Predictor{Res: power.ResCPU, State: power.CPUActive}]
	fmt.Fprintf(&sb, "CPU power while active: %.2f mW\n", cpuMW)
	wake, fps := l.Stats()
	fmt.Fprintf(&sb, "Wake-ups: %d, false positives: %d\n", wake, fps)

	r.Text = sb.String()
	r.Values["rx_listen_mW"] = rxMW
	r.Values["found_both"] = boolVal(normal != nil && fp != nil)
	return r, nil
}
