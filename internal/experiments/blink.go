package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

// blinkResources are the rows of the Blink figures and tables.
var blinkResources = []core.ResourceID{power.ResCPU, power.ResLED0, power.ResLED1, power.ResLED2}

// blinkScenario is the paper's canonical 48 s Blink run as a declarative
// scenario — the single definition every Blink-based exhibit shares. These
// exhibits compare against the oscilloscope, so the node gets one before
// the run.
func blinkScenario(seed uint64) (*mote.World, *mote.Node, *apps.Blink, error) {
	in, err := scenario.Build(scenario.Spec{App: "blink", Seed: seed, DurationUS: int64(48 * units.Second)})
	if err != nil {
		return nil, nil, nil, err
	}
	b := in.App.(*apps.Blink)
	in.World.AttachScope(b.Node)
	in.Run()
	return in.World, b.Node, b, nil
}

// Figure11 reproduces the Blink activity/power profile: (a) the 48 s
// activity timeline per hardware component with the measured power draw,
// (b) the detail of a transition where all three LEDs switch off, and
// (c) the stacked reconstruction compared against the oscilloscope.
func Figure11(seed uint64) (*Report, error) {
	r := newReport("fig11", "Blink activity and power profile (48 s run)")
	w, n, _, err := blinkScenario(seed)
	if err != nil {
		return nil, err
	}
	a, err := analyzeNode(w, n)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	sb.WriteString("(a) 48 s activity timeline (each letter one activity; '.' idle):\n")
	rows := a.ActivityRows(blinkResources, 0, a.Span())
	sb.WriteString(analysis.RenderGantt(rows, 0, a.Span(), 96))
	fmt.Fprintf(&sb, "Average measured power: %.2f mW over %.1f s\n\n",
		a.AveragePowerMW(), float64(a.Span())/1e6)

	// (b) Find the all-on -> all-off transition: the LED0 off edge where
	// all LEDs were on (t = 8 s in the paper's run).
	tTrans := int64(-1)
	for _, seg := range a.States[power.ResLED0] {
		if seg.State != power.StateOn {
			continue
		}
		end := seg.End
		allOn := ledsOnAt(a, end-1)
		if allOn[0] && allOn[1] && allOn[2] {
			tTrans = end
			break
		}
	}
	if tTrans >= 0 {
		lo, hi := tTrans-1000, tTrans+3000
		sb.WriteString("(b) Transition detail (4 ms window, all LEDs on -> off):\n")
		rows := a.ActivityRows(blinkResources, lo, hi)
		sb.WriteString(analysis.RenderGantt(rows, lo, hi, 96))
		sb.WriteByte('\n')
	}

	// (c) Stacked reconstruction vs oscilloscope energy over the full run.
	recUJ, scopeUJ, relErr := a.CompareWithScope(n.Scope, n.Volts, 0, a.Span())
	fmt.Fprintf(&sb, "(c) Reconstructed energy: %.1f mJ; oscilloscope: %.1f mJ; rel. err %.4f%%\n",
		recUJ/1000, scopeUJ/1000, relErr*100)
	fmt.Fprintf(&sb, "    Quanto-measured vs reconstructed rel. err: %.5f%% (paper: 0.004%%)\n",
		a.ReconstructionError()*100)

	r.Text = sb.String()
	r.Values["avg_power_mW"] = a.AveragePowerMW()
	r.Values["recon_vs_scope_rel_err"] = relErr
	r.Values["recon_vs_meter_rel_err"] = a.ReconstructionError()
	r.Values["transition_found"] = boolVal(tTrans >= 0)
	return r, nil
}

func ledsOnAt(a *analysis.Analysis, t int64) [3]bool {
	var out [3]bool
	for i, res := range []core.ResourceID{power.ResLED0, power.ResLED1, power.ResLED2} {
		for _, seg := range a.States[res] {
			if seg.Start <= t && t < seg.End {
				out[i] = seg.State == power.StateOn
				break
			}
		}
	}
	return out
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Table3 reproduces "where the joules have gone in Blink": (a) time spent by
// each activity on each hardware component, (b) the regression's power
// draws, (c) energy per hardware component, and (d) energy per activity.
func Table3(seed uint64) (*Report, error) {
	r := newReport("table3", "Blink time and energy breakdowns")
	w, n, _, err := blinkScenario(seed)
	if err != nil {
		return nil, err
	}
	a, err := analyzeNode(w, n)
	if err != nil {
		return nil, err
	}
	volts := float64(n.Volts)
	var sb strings.Builder

	// (a) Time breakdown.
	times := a.TimeByActivity()
	labels := a.LabelsInUse()
	sb.WriteString("(a) Time breakdown, seconds (activities x hardware components)\n")
	fmt.Fprintf(&sb, "%-18s %10s %10s %10s %10s\n", "Activity", "LED0", "LED1", "LED2", "CPU")
	cols := []core.ResourceID{power.ResLED0, power.ResLED1, power.ResLED2, power.ResCPU}
	colTotals := make([]float64, len(cols))
	for _, l := range labels {
		var row [4]float64
		any := false
		for i, res := range cols {
			row[i] = float64(times[res][l]) / 1e6
			colTotals[i] += row[i]
			if row[i] > 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(&sb, "%-18s %10.4f %10.4f %10.4f %10.4f\n", labelName(w, l), row[0], row[1], row[2], row[3])
	}
	fmt.Fprintf(&sb, "%-18s %10.4f %10.4f %10.4f %10.4f\n", "Total", colTotals[0], colTotals[1], colTotals[2], colTotals[3])

	// (b) Regression results.
	sb.WriteString("\n(b) Regression: estimated draw per hardware component\n")
	fmt.Fprintf(&sb, "%-12s %12s %12s\n", "Component", "Iavg (mA)", "Pavg (mW)")
	type fitted struct {
		name string
		p    analysis.Predictor
	}
	fits := []fitted{
		{"LED0", analysis.Predictor{Res: power.ResLED0, State: power.StateOn}},
		{"LED1", analysis.Predictor{Res: power.ResLED1, State: power.StateOn}},
		{"LED2", analysis.Predictor{Res: power.ResLED2, State: power.StateOn}},
		{"CPU", analysis.Predictor{Res: power.ResCPU, State: power.CPUActive}},
	}
	for _, f := range fits {
		mw := a.Reg.PowerMW[f.p]
		fmt.Fprintf(&sb, "%-12s %12.3f %12.3f\n", f.name, mw/volts, mw)
		r.Values[strings.ToLower(f.name)+"_mA"] = mw / volts
	}
	fmt.Fprintf(&sb, "%-12s %12.3f %12.3f\n", "Const.", a.Reg.ConstMW/volts, a.Reg.ConstMW)
	fmt.Fprintf(&sb, "Paper (b): LED0 2.51, LED1 2.24, LED2 0.83, CPU 1.43, Const 0.83 mA\n")

	// (c) Energy per hardware component.
	byRes, constUJ := a.EnergyByResource()
	sb.WriteString("\n(c) Total energy per hardware component\n")
	var total float64
	resOrder := []core.ResourceID{power.ResLED0, power.ResLED1, power.ResLED2, power.ResCPU}
	for _, res := range resOrder {
		e := byRes[res]
		total += e
		fmt.Fprintf(&sb, "%-12s %12.2f mJ\n", w.Dict.ResourceName(res), e/1000)
	}
	total += constUJ
	fmt.Fprintf(&sb, "%-12s %12.2f mJ\n", "Const.", constUJ/1000)
	fmt.Fprintf(&sb, "%-12s %12.2f mJ  (paper: 521.23 mJ)\n", "Total", total/1000)
	r.Values["total_mJ"] = total / 1000
	r.Values["const_mJ"] = constUJ / 1000

	// (d) Energy per activity.
	byAct := a.EnergyByActivity()
	sb.WriteString("\n(d) Total energy per activity\n")
	actKeys := slices.Sorted(maps.Keys(byAct))
	var actTotal float64
	for _, l := range actKeys {
		e := byAct[l]
		actTotal += e
		if e < 0.5 && l != analysis.ConstLabel {
			continue
		}
		fmt.Fprintf(&sb, "%-18s %12.2f mJ\n", labelName(w, l), e/1000)
	}
	fmt.Fprintf(&sb, "%-18s %12.2f mJ\n", "Total", actTotal/1000)
	r.Values["activity_total_mJ"] = actTotal / 1000
	r.Values["measured_total_mJ"] = a.TotalEnergyUJ() / 1000

	// Per-activity headline values for the tests (Red should carry LED0's
	// energy, etc.).
	for _, l := range actKeys {
		name := labelName(w, l)
		switch {
		case strings.HasSuffix(name, ":Red"):
			r.Values["red_mJ"] = byAct[l] / 1000
		case strings.HasSuffix(name, ":Green"):
			r.Values["green_mJ"] = byAct[l] / 1000
		case strings.HasSuffix(name, ":Blue"):
			r.Values["blue_mJ"] = byAct[l] / 1000
		}
	}
	r.Text = sb.String()
	return r, nil
}
