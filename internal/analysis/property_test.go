package analysis

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestRegressionRecoveryProperty is the end-to-end statistical property of
// Section 2.5: for randomized schedules of independent sinks with known
// draws, the weighted regression recovers each draw from nothing but the
// aggregate pulse stream, as long as the schedule exercises the states
// independently.
func TestRegressionRecoveryProperty(t *testing.T) {
	rng := sim.NewRNG(2024)
	const trials = 25
	passed := 0
	for trial := 0; trial < trials; trial++ {
		b := newTraceBuilder()
		// Two to four sinks with random draws between 0.5 and 10 mA.
		nSinks := 2 + rng.Intn(3)
		draws := make([]float64, nSinks)
		for i := range draws {
			draws[i] = 500 + rng.Float64()*9500
			b.draw(core.ResourceID(20+i), 1, draws[i])
		}
		b.draw(0, 0, 300+rng.Float64()*700) // baseline
		b.states[0] = 0
		for i := range draws {
			b.ps(core.ResourceID(20+i), 0)
		}
		// Random schedule: each step toggles one random sink after a
		// random dwell of 0.2-1.2 s.
		for step := 0; step < 60; step++ {
			b.advance(uint32(200_000 + rng.Intn(1_000_000)))
			sink := core.ResourceID(20 + rng.Intn(nSinks))
			if b.states[sink] == 0 {
				b.ps(sink, 1)
			} else {
				b.ps(sink, 0)
			}
		}
		b.advance(500_000)
		b.marker()

		tr := b.trace()
		ivs, vecs := tr.StateIntervals()
		reg, err := RunRegression(ivs, vecs, tr.PulseUJ, DefaultOptions())
		if err != nil {
			continue // some random schedules are degenerate; that's fine
		}
		ok := true
		for i, ua := range draws {
			p := Predictor{core.ResourceID(20 + i), 1}
			mw, have := reg.PowerMW[p]
			if !have {
				// Merged or dropped: skip this sink's check but keep the
				// trial (collinearity is possible at random).
				continue
			}
			wantMW := ua * 3.0 / 1000
			if math.Abs(mw-wantMW) > 0.05*wantMW+0.3 {
				ok = false
			}
		}
		if ok {
			passed++
		}
	}
	if passed < trials*3/4 {
		t.Errorf("recovered draws in only %d/%d random schedules", passed, trials)
	}
}

// TestEnergyConservationProperty: for any random schedule, the sum of the
// per-activity attribution equals the per-resource attribution, and both are
// within quantization error of the measured total.
func TestEnergyConservationProperty(t *testing.T) {
	rng := sim.NewRNG(777)
	for trial := 0; trial < 15; trial++ {
		b := newTraceBuilder()
		b.draw(resA, 1, 1000+rng.Float64()*5000)
		b.draw(resB, 1, 500+rng.Float64()*2000)
		b.draw(0, 0, 400)
		b.states[0] = 0
		b.ps(resA, 0)
		b.ps(resB, 0)
		l1 := core.MkLabel(1, 2)
		l2 := core.MkLabel(1, 3)
		b.act(core.EntryActivitySet, resA, l1)
		b.act(core.EntryActivitySet, resB, l2)
		for step := 0; step < 40; step++ {
			b.advance(uint32(100_000 + rng.Intn(900_000)))
			if rng.Intn(2) == 0 {
				if b.states[resA] == 0 {
					b.ps(resA, 1)
				} else {
					b.ps(resA, 0)
				}
			} else {
				if b.states[resB] == 0 {
					b.ps(resB, 1)
				} else {
					b.ps(resB, 0)
				}
			}
		}
		b.advance(300_000)
		b.marker()

		a, err := Analyze(b.trace(), core.NewDictionary(), DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		byRes, constUJ := a.EnergyByResource()
		var resSum float64
		for _, uj := range byRes {
			resSum += uj
		}
		resSum += constUJ
		var actSum float64
		for _, uj := range a.EnergyByActivity() {
			actSum += uj
		}
		if math.Abs(resSum-actSum) > 1e-6*math.Max(1, resSum) {
			t.Errorf("trial %d: resource sum %.2f != activity sum %.2f", trial, resSum, actSum)
		}
		measured := a.TotalEnergyUJ()
		if measured > 0 {
			if rel := math.Abs(resSum-measured) / measured; rel > 0.05 {
				t.Errorf("trial %d: attribution %.1f vs measured %.1f (rel %.4f)", trial, resSum, measured, rel)
			}
		}
	}
}

// TestNonNegativeAttributionProperty: with the default NNLS regression, no
// activity is ever charged negative energy, whatever the schedule.
func TestNonNegativeAttributionProperty(t *testing.T) {
	rng := sim.NewRNG(31)
	for trial := 0; trial < 15; trial++ {
		b := newTraceBuilder()
		b.draw(resA, 1, 3000)
		b.draw(resB, 1, 2500)
		b.draw(0, 0, 600)
		b.states[0] = 0
		b.ps(resA, 0)
		b.ps(resB, 0)
		// Adversarial: B is on exactly when A is off (complementary), the
		// pattern that bankrupts unconstrained least squares.
		on := false
		for step := 0; step < 30; step++ {
			b.advance(uint32(200_000 + rng.Intn(500_000)))
			if on {
				b.ps(resA, 0)
				b.ps(resB, 1)
			} else {
				b.ps(resA, 1)
				b.ps(resB, 0)
			}
			on = !on
		}
		b.advance(200_000)
		b.marker()
		a, err := Analyze(b.trace(), core.NewDictionary(), DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for p, mw := range a.Reg.PowerMW {
			if mw < 0 {
				t.Errorf("trial %d: negative draw %v for %v", trial, mw, p)
			}
		}
		if a.Reg.ConstMW < 0 {
			t.Errorf("trial %d: negative constant %v", trial, a.Reg.ConstMW)
		}
		for l, uj := range a.EnergyByActivity() {
			if uj < 0 {
				t.Errorf("trial %d: negative energy %v for %v", trial, uj, l)
			}
		}
	}
}
