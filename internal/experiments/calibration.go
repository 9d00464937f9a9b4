package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/linalg"
	"repro/internal/mote"
	"repro/internal/power"
	"repro/internal/units"
)

// comboWindow is one steady Blink state: the CPU asleep and a fixed LED
// combination, observed for a total time with a pulse count.
type comboStat struct {
	timeUS  int64
	pulses  uint64
	scopeMA float64 // duration-weighted scope measurement, mA
}

// blinkSteadyStates runs Blink and aggregates its eight steady states:
// per LED combination, the time spent, the iCount pulses, and the
// oscilloscope's measured mean current.
func blinkSteadyStates(seed uint64) (*mote.World, *mote.Node, *analysis.Analysis, map[int]*comboStat, error) {
	w, n, _, err := blinkScenario(seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	a, err := analyzeNode(w, n)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	combos := make(map[int]*comboStat)
	for _, iv := range a.Intervals {
		vec := a.Vectors[iv.Vec]
		if vec.State(power.ResCPU) != power.CPUSleep {
			continue
		}
		if iv.Duration() < int64(100*units.Millisecond) {
			continue
		}
		combo := 0
		if vec.State(power.ResLED0) == power.StateOn {
			combo |= 1
		}
		if vec.State(power.ResLED1) == power.StateOn {
			combo |= 2
		}
		if vec.State(power.ResLED2) == power.StateOn {
			combo |= 4
		}
		c := combos[combo]
		if c == nil {
			c = &comboStat{}
			combos[combo] = c
		}
		// Shrink the window slightly so the scope reading excludes the
		// transition edges, as a bench measurement would.
		margin := int64(2 * units.Millisecond)
		mean := n.Scope.MeasuredMean(units.Ticks(iv.Start+margin), units.Ticks(iv.End-margin))
		c.scopeMA += mean.MilliAmps() * float64(iv.Duration())
		c.timeUS += iv.Duration()
		c.pulses += uint64(iv.Pulses)
	}
	//quanto:ordered each combination normalizes its own mean
	for _, c := range combos {
		if c.timeUS > 0 {
			c.scopeMA /= float64(c.timeUS)
		}
	}
	return w, n, a, combos, nil
}

// Figure10 reproduces the calibration figure: per steady Blink state, the
// scope's mean current and the iCount switching frequency, plus the linear
// fit I_avg = a*f_iC + b that the paper reports as I = 2.77 f - 0.05 with
// R^2 = 0.99995.
func Figure10(seed uint64) (*Report, error) {
	r := newReport("fig10", "Current vs iCount switching frequency across Blink steady states")
	_, n, _, combos, err := blinkSteadyStates(seed)
	if err != nil {
		return nil, err
	}

	keys := slices.Sorted(maps.Keys(combos))

	var fs, is []float64
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-12s %-14s %-16s\n", "L2 L1 L0", "I_scope(mA)", "f_iC(kHz)", "time(s)")
	for _, k := range keys {
		c := combos[k]
		fKHz := float64(c.pulses) / float64(c.timeUS) * 1000
		fs = append(fs, fKHz)
		is = append(is, c.scopeMA)
		fmt.Fprintf(&sb, " %d  %d  %d   %-12.3f %-14.4f %-16.2f\n",
			(k>>2)&1, (k>>1)&1, k&1, c.scopeMA, fKHz, float64(c.timeUS)/1e6)
	}
	slope, intercept, r2, err := linalg.LinFit(fs, is)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "\nLinear fit: I_avg = %.3f * f_iC %+.4f  (R^2 = %.6f)\n", slope, intercept, r2)
	fmt.Fprintf(&sb, "Paper:      I_avg = 2.77 * f_iC - 0.05   (R^2 = 0.99995)\n")
	fmt.Fprintf(&sb, "Energy per pulse implied: %.3f uJ (meter quantum: %.2f uJ)\n",
		slope*float64(n.Volts), n.Meter.PulseEnergy())

	// Short sampled traces of two states, with pulse instants — the
	// waveform view of Figure 10.
	for _, k := range []int{2, 7} {
		w := windowOfCombo(n, k)
		if w == nil {
			continue
		}
		samples := n.Scope.Samples(w[0], w[0]+1500, 100*units.Microsecond)
		pulses := n.Scope.PulseTimes(n.Volts, n.Meter.PulseEnergy(), w[0], w[0]+1500)
		fmt.Fprintf(&sb, "\nState L0L1L2=%d%d%d trace (1.5 ms): %d samples, %d iCount pulses\n",
			k&1, (k>>1)&1, (k>>2)&1, len(samples), len(pulses))
	}
	r.Text = sb.String()
	r.Values["slope_mA_per_kHz"] = slope
	r.Values["intercept_mA"] = intercept
	r.Values["r2"] = r2
	r.Values["states"] = float64(len(keys))
	return r, nil
}

// windowOfCombo finds one steady window of a given LED combination.
func windowOfCombo(n *mote.Node, combo int) *[2]units.Ticks {
	// Blink's LED i toggles every 2^i seconds starting just after boot, so
	// combination bits follow the binary counter of elapsed seconds. State
	// "combo" holds during second t where bits of (t+1) match... rather
	// than derive it, scan the scope steps for a stable 0.9 s window with
	// the right current is overkill; use the analysis-free approach of the
	// known schedule: second s has LED i on iff bit i of (s+1) is set,
	// counting from the first toggle at ~1 s.
	for s := int64(1); s < 47; s++ {
		on0 := ((s)&1 == 1)
		on1 := ((s/2)&1 == 1)
		on2 := ((s/4)&1 == 1)
		got := 0
		if on0 {
			got |= 1
		}
		if on1 {
			got |= 2
		}
		if on2 {
			got |= 4
		}
		if got == combo {
			start := units.Ticks(s)*units.Second + 100*units.Millisecond
			return &[2]units.Ticks{start, start + 800*units.Millisecond}
		}
	}
	return nil
}

// Table2 reproduces the calibration table: the oscilloscope's measured
// current for each Blink steady state, the per-component regression, and
// the reconstruction X*Pi with its relative error (paper: 0.83%).
func Table2(seed uint64) (*Report, error) {
	r := newReport("table2", "Oscilloscope calibration of Blink steady states and regression")
	_, _, _, combos, err := blinkSteadyStates(seed)
	if err != nil {
		return nil, err
	}
	keys := slices.Sorted(maps.Keys(combos))
	if len(keys) < 8 {
		return nil, fmt.Errorf("observed only %d of 8 LED combinations", len(keys))
	}

	x := linalg.NewMatrix(len(keys), 4)
	y := make([]float64, len(keys))
	for i, k := range keys {
		x.Set(i, 0, float64(k&1))
		x.Set(i, 1, float64((k>>1)&1))
		x.Set(i, 2, float64((k>>2)&1))
		x.Set(i, 3, 1)
		y[i] = combos[k].scopeMA
	}
	fit, err := linalg.OLS(x, y)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-4s %-4s %-4s | %-10s | %-10s\n", "L0", "L1", "L2", "C", "I(mA)", "XPi(mA)")
	for i, k := range keys {
		fmt.Fprintf(&sb, "%-4d %-4d %-4d %-4d | %-10.3f | %-10.3f\n",
			k&1, (k>>1)&1, (k>>2)&1, 1, y[i], fit.Fitted[i])
	}
	fmt.Fprintf(&sb, "\nPi:    LED0=%.3f mA  LED1=%.3f mA  LED2=%.3f mA  Const=%.3f mA\n",
		fit.Coef[0], fit.Coef[1], fit.Coef[2], fit.Coef[3])
	fmt.Fprintf(&sb, "Paper: LED0=2.50 mA   LED1=2.23 mA   LED2=0.83 mA   Const=0.79 mA\n")
	fmt.Fprintf(&sb, "Relative error ||Y-XPi||/||Y|| = %.4f%% (paper: 0.83%%)\n", fit.RelErr*100)

	r.Text = sb.String()
	r.Values["led0_mA"] = fit.Coef[0]
	r.Values["led1_mA"] = fit.Coef[1]
	r.Values["led2_mA"] = fit.Coef[2]
	r.Values["const_mA"] = fit.Coef[3]
	r.Values["rel_err"] = fit.RelErr
	return r, nil
}
