package apps

import (
	"testing"

	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

func lplDuty(t *testing.T, l *LPL) float64 {
	t.Helper()
	a := analyzeNodes(t, l.World, l.Node).Nodes[l.Node.ID]
	return float64(a.ActiveTimeUS(power.ResRadioReg)) / float64(a.Span())
}

func TestLPLCleanChannelNoFalsePositives(t *testing.T) {
	l := newApp(NewLPL, scenario.Spec{Seed: 11, Channel: 26})
	l.Run(70 * units.Second)
	wakeups, fps := l.Stats()
	if wakeups < 130 {
		t.Errorf("wakeups = %d, want ~140 over 70s at 500ms", wakeups)
	}
	if fps != 0 {
		t.Errorf("false positives on channel 26 = %d, want 0", fps)
	}
}

func TestLPLInterferedChannelFalsePositives(t *testing.T) {
	l := newApp(NewLPL, scenario.Spec{Seed: 11, Channel: 17})
	l.Run(70 * units.Second)
	rate := l.FalsePositiveRate()
	// Paper: 17.8% of checks falsely detect energy; the interferer's duty
	// cycle is ~17.9%. Allow sampling noise.
	if rate < 0.10 || rate > 0.28 {
		t.Errorf("false-positive rate = %.3f, want ~0.178", rate)
	}
}

func TestLPLDutyCycles(t *testing.T) {
	clean := newApp(NewLPL, scenario.Spec{Seed: 11, Channel: 26})
	clean.Run(70 * units.Second)
	noisy := newApp(NewLPL, scenario.Spec{Seed: 11, Channel: 17})
	noisy.Run(70 * units.Second)

	dClean := lplDuty(t, clean)
	dNoisy := lplDuty(t, noisy)
	// Paper: 2.22% clean, 5.58% under interference.
	if dClean < 0.015 || dClean > 0.032 {
		t.Errorf("clean duty cycle = %.4f, want ~0.022", dClean)
	}
	if dNoisy < 0.035 || dNoisy > 0.085 {
		t.Errorf("interfered duty cycle = %.4f, want ~0.056", dNoisy)
	}
	if dNoisy <= dClean*1.5 {
		t.Errorf("interfered duty (%.4f) should far exceed clean duty (%.4f)", dNoisy, dClean)
	}
}

func TestLPLPowerOrdering(t *testing.T) {
	clean := newApp(NewLPL, scenario.Spec{Seed: 11, Channel: 26})
	clean.Run(70 * units.Second)
	noisy := newApp(NewLPL, scenario.Spec{Seed: 11, Channel: 17})
	noisy.Run(70 * units.Second)

	pClean := clean.Node.Meter.EnergyMicroJoules() / 70e6 * 1000 // mW
	pNoisy := noisy.Node.Meter.EnergyMicroJoules() / 70e6 * 1000
	if pNoisy <= pClean {
		t.Errorf("interfered power %.3f mW should exceed clean power %.3f mW", pNoisy, pClean)
	}
	ratio := pNoisy / pClean
	// Paper reports 1.43 vs 0.919 mW (ratio 1.56); our physically
	// consistent model lands a somewhat larger ratio. Direction and rough
	// scale must hold.
	if ratio < 1.2 || ratio > 4.0 {
		t.Errorf("power ratio = %.2f, want within [1.2, 4.0]", ratio)
	}
}

// TestLPLShortCheckPeriods: a check period shorter than a false positive's
// ~114 ms on-window is valid. A wake-up that finds the previous one still
// holding the radio on must do nothing, not arm a settle that samples the
// radio after the hold has turned it off.
func TestLPLShortCheckPeriods(t *testing.T) {
	for _, p := range []units.Ticks{20 * units.Millisecond, 50 * units.Millisecond, 100 * units.Millisecond} {
		r := scenario.RunSpec(scenario.Spec{App: "lpl", Seed: 1, Channel: 17,
			CheckPeriodUS: int64(p), DurationUS: int64(30 * units.Second)})
		if r.Error != "" {
			t.Errorf("check period %v: %s", p, r.Error)
			continue
		}
		wakeups, fps := r.Metrics["wakeups"], r.Metrics["false_positives"]
		if fps == 0 || wakeups >= float64(30*units.Second/p) {
			t.Errorf("check period %v: %v wake-ups and %v false positives in 30 s, want some skipped for holds",
				p, wakeups, fps)
		}
	}
}
