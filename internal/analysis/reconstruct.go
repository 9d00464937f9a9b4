package analysis

import (
	"math"

	"repro/internal/scope"
	"repro/internal/units"
)

// PowerStep is one segment of the reconstructed power trace: from T onward
// the model predicts PowerMW.
type PowerStep struct {
	T       int64
	PowerMW float64
}

// Reconstruct builds the stacked power trace of Figure 11(c): for every
// state interval, the fitted power X*Pi of its group. The result is a
// piecewise-constant series aligned with the log's intervals.
func (a *Analysis) Reconstruct() []PowerStep {
	// Intervals share a handful of vectors: predict each vector once.
	predicted := make([]float64, len(a.Vectors))
	for v, sv := range a.Vectors {
		predicted[v] = a.Reg.PredictGroup(sv.Active)
	}
	out := make([]PowerStep, 0, len(a.Intervals)+1)
	for _, iv := range a.Intervals {
		p := predicted[iv.Vec]
		if n := len(out); n > 0 && out[n-1].PowerMW == p {
			continue
		}
		out = append(out, PowerStep{T: iv.Start, PowerMW: p})
	}
	return out
}

// StackedStep is one reconstructed interval decomposed by hardware
// component, for rendering the stacked breakdown of Figure 11(c).
type StackedStep struct {
	Start, End int64
	// Parts maps each active predictor to its fitted share; ConstMW rides
	// underneath.
	Parts   map[Predictor]float64
	ConstMW float64
	TotalMW float64
}

// ReconstructStacked returns the per-component decomposition over time.
func (a *Analysis) ReconstructStacked() []StackedStep {
	out := make([]StackedStep, 0, len(a.Intervals))
	for _, iv := range a.Intervals {
		st := StackedStep{Start: iv.Start, End: iv.End, Parts: make(map[Predictor]float64), ConstMW: a.Reg.ConstMW}
		st.TotalMW = a.Reg.ConstMW
		for _, p := range a.Vectors[iv.Vec].Active {
			if mw, ok := a.Reg.PowerMW[p]; ok {
				st.Parts[p] = mw
				st.TotalMW += mw
			}
		}
		out = append(out, st)
	}
	return out
}

// ReconstructedEnergyUJ integrates the reconstructed power over the span.
func (a *Analysis) ReconstructedEnergyUJ() float64 {
	var total float64
	for _, st := range a.ReconstructStacked() {
		total += st.TotalMW * float64(st.End-st.Start) / 1000
	}
	return total
}

// ReconstructionError returns |E_measured - E_reconstructed| / E_measured,
// the paper's 0.004% figure for Blink.
func (a *Analysis) ReconstructionError() float64 {
	measured := a.TotalEnergyUJ()
	if measured == 0 {
		return 0
	}
	return math.Abs(measured-a.ReconstructedEnergyUJ()) / measured
}

// CompareWithScope integrates both the reconstructed power trace and the
// oscilloscope's ground-truth waveform over [t0, t1) and returns
// (reconstructed uJ, scope uJ, relative error) — the Figure 11(c) overlay
// reduced to its headline number.
func (a *Analysis) CompareWithScope(sc *scope.Scope, volts units.Volts, t0, t1 int64) (recUJ, scopeUJ, relErr float64) {
	for _, st := range a.ReconstructStacked() {
		lo, hi := maxi64(st.Start, t0), mini64(st.End, t1)
		if hi > lo {
			recUJ += st.TotalMW * float64(hi-lo) / 1000
		}
	}
	scopeUJ = sc.EnergyMicroJoules(volts, units.Ticks(t0), units.Ticks(t1))
	if scopeUJ != 0 {
		relErr = math.Abs(recUJ-scopeUJ) / scopeUJ
	}
	return recUJ, scopeUJ, relErr
}
