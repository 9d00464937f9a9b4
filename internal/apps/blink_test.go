package apps

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/icount"
	"repro/internal/mote"
	"repro/internal/power"
	"repro/internal/units"
)

// runBlinkAnalysis is shared by several tests: a 48 s Blink run analyzed
// with default options.
func runBlinkAnalysis(t *testing.T, seed uint64) (*mote.World, *mote.Node, *Blink, *analysis.Analysis) {
	t.Helper()
	w, n, b := RunBlink(seed, 48*units.Second)
	a := analyzeNodes(t, w, n).Nodes[n.ID]
	return w, n, b, a
}

func TestBlinkTogglesLEDs(t *testing.T) {
	_, _, b, _ := runBlinkAnalysis(t, 1)
	tg := b.Toggles()
	// The first fire lands a few hundred microseconds after each second
	// boundary (boot-time instrumentation cost), so the final toggle of
	// each timer may fall just past the 48 s horizon.
	if tg[0] < 47 || tg[0] > 48 || tg[1] < 23 || tg[1] > 24 || tg[2] < 11 || tg[2] > 12 {
		t.Errorf("toggles = %v, want ~[48 24 12]", tg)
	}
}

func TestBlinkLEDOnTimes(t *testing.T) {
	_, _, _, a := runBlinkAnalysis(t, 1)
	// Each LED is on half the time; the paper's Table 3(a) reports
	// 24.01/24.00/24.00 s over 48 s.
	for _, res := range []core.ResourceID{power.ResLED0, power.ResLED1, power.ResLED2} {
		on := a.ActiveTimeUS(res)
		if math.Abs(float64(on)-24e6) > 0.2e6 {
			t.Errorf("res %d on-time = %.3fs, want ~24s", res, float64(on)/1e6)
		}
	}
}

func TestBlinkCPUDutyCycle(t *testing.T) {
	_, _, _, a := runBlinkAnalysis(t, 1)
	active := a.ActiveTimeUS(power.ResCPU)
	duty := float64(active) / float64(a.Span())
	// Paper: "The CPU is active for only 0.178% of the time."
	if duty < 0.0005 || duty > 0.005 {
		t.Errorf("CPU duty cycle = %.4f%%, want around 0.1-0.5%%", duty*100)
	}
}

func TestBlinkRegressionRecoversLEDDraws(t *testing.T) {
	_, n, _, a := runBlinkAnalysis(t, 1)
	volts := float64(n.Volts)
	want := map[core.ResourceID]float64{ // mA, the calibrated truth
		power.ResLED0: 2.505,
		power.ResLED1: 2.235,
		power.ResLED2: 0.830,
	}
	for res, wantMA := range want {
		got := a.Reg.CurrentMA(analysis.Predictor{Res: res, State: power.StateOn}, volts)
		if math.Abs(got-wantMA) > 0.05*wantMA {
			t.Errorf("res %d regressed draw = %.3f mA, want %.3f mA (+-5%%)", res, got, wantMA)
		}
	}
	constMA := a.Reg.ConstCurrentMA(volts)
	if math.Abs(constMA-0.80) > 0.08 {
		t.Errorf("const = %.3f mA, want ~0.80 mA", constMA)
	}
}

func TestBlinkEnergyTotalsConsistent(t *testing.T) {
	_, _, _, a := runBlinkAnalysis(t, 1)
	byRes, constUJ := a.EnergyByResource()
	var sumRes float64
	for _, e := range byRes {
		sumRes += e
	}
	sumRes += constUJ

	byAct := a.EnergyByActivity()
	var sumAct float64
	for _, e := range byAct {
		sumAct += e
	}

	measured := a.TotalEnergyUJ()
	if measured <= 0 {
		t.Fatalf("no energy measured")
	}
	if rel := math.Abs(sumRes-measured) / measured; rel > 0.02 {
		t.Errorf("per-resource total %.1f uJ vs measured %.1f uJ (rel %.4f)", sumRes, measured, rel)
	}
	if rel := math.Abs(sumAct-sumRes) / sumRes; rel > 1e-6 {
		t.Errorf("per-activity total %.1f uJ != per-resource total %.1f uJ", sumAct, sumRes)
	}
	// Paper: Blink's 48 s total was 521 mJ at 3 V. Ours uses the same
	// calibrated draws, so it should land in the same range.
	if mj := measured / 1000; mj < 400 || mj > 650 {
		t.Errorf("total energy = %.1f mJ, want ~520 mJ", mj)
	}
}

func TestBlinkReconstructionError(t *testing.T) {
	_, _, _, a := runBlinkAnalysis(t, 1)
	// Paper: 0.004% for Blink. Allow a generous bound.
	if err := a.ReconstructionError(); err > 0.01 {
		t.Errorf("reconstruction error = %.5f, want < 1%%", err)
	}
}

func TestBlinkDeterminism(t *testing.T) {
	_, n1, _, _ := runBlinkAnalysis(t, 7)
	_, n2, _, _ := runBlinkAnalysis(t, 7)
	a := n1.Log.Entries
	b := n2.Log.Entries
	if len(a) != len(b) {
		t.Fatalf("entry counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBlinkEventCountNearPaper(t *testing.T) {
	_, n, _, _ := runBlinkAnalysis(t, 1)
	// Paper: "we logged 597 messages over 48 seconds". The exact count
	// depends on instrumentation detail; same order of magnitude expected.
	got := len(n.Log.Entries)
	if got < 300 || got > 1500 {
		t.Errorf("logged %d entries, want a few hundred (paper: 597)", got)
	}
}

func TestBlinkMeterAgreesWithScope(t *testing.T) {
	_, n, _, a := runBlinkAnalysis(t, 1)
	span := a.Span()
	scopeUJ := n.Scope.EnergyMicroJoules(n.Volts, 0, units.Ticks(span))
	meterUJ := a.TotalEnergyUJ()
	if scopeUJ <= 0 {
		t.Fatalf("scope recorded no energy")
	}
	if rel := math.Abs(scopeUJ-meterUJ) / scopeUJ; rel > 0.01 {
		t.Errorf("meter %.1f uJ vs scope %.1f uJ (rel %.4f)", meterUJ, scopeUJ, rel)
	}
	_ = icount.PulseEnergyMicroJoules
}
