package experiments

import (
	"fmt"
	"maps"
	"math"
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

// The ablation exhibits each switch off one of the paper's design choices
// on a fixed workload and report what the choice buys: the regression
// weights (Section 2.5), proxy binding (Section 3.3), the equal split of a
// multi-activity device (Section 3.4) and logging instead of counting
// (Section 5.1). Each sets one of analysis.Options' three values, or none.

// AblationWeights fits the canonical 48 s Blink run with the paper's
// weights w = sqrt(E*t) and without them, and scores each fitted LED draw
// against the draw the simulator charges for it (power.CalibratedDraws).
func AblationWeights(seed uint64) (*Report, error) {
	r := newReport("ablation-weights", "Ablation: weighted vs unweighted regression (Blink, 48 s)")
	w, n, _, err := blinkScenario(seed)
	if err != nil {
		return nil, err
	}
	weighted, err := analyzeNodeWith(w, n, analysis.DefaultOptions())
	if err != nil {
		return nil, err
	}
	opts := analysis.DefaultOptions()
	opts.Weighted = false
	unweighted, err := analyzeNodeWith(w, n, opts)
	if err != nil {
		return nil, err
	}
	for _, a := range []*analysis.Analysis{weighted, unweighted} {
		if a.RegressionErr != nil {
			return nil, a.RegressionErr
		}
	}

	truth := power.CalibratedDraws()
	volts := float64(n.Volts)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %10s %14s %10s %14s %10s\n", "LED", "true (mA)", "weighted (mA)", "err (uA)", "unweighted (mA)", "err (uA)")
	for i, res := range []core.ResourceID{power.ResLED0, power.ResLED1, power.ResLED2} {
		p := analysis.Predictor{Res: res, State: power.StateOn}
		trueMA := float64(truth.Draw(res, power.StateOn)) / 1000
		wMA, uMA := weighted.Reg.CurrentMA(p, volts), unweighted.Reg.CurrentMA(p, volts)
		wErr, uErr := math.Abs(wMA-trueMA)*1000, math.Abs(uMA-trueMA)*1000
		fmt.Fprintf(&sb, "LED%-3d %10.3f %14.3f %10.2f %14.3f %10.2f\n", i, trueMA, wMA, wErr, uMA, uErr)
		if res == power.ResLED0 {
			r.Values["weighted_err_uA"] = wErr
			r.Values["unweighted_err_uA"] = uErr
		}
	}
	fmt.Fprintf(&sb, "\nRelative fit error ||Y-XPi||/||Y||: weighted %.4f%%, unweighted %.4f%%\n",
		weighted.Reg.Fit.RelErr*100, unweighted.Reg.Fit.RelErr*100)
	sb.WriteString("The unweighted fit minimizes that residual, so it reads the lower one. The weights\n")
	sb.WriteString("trust each state group in proportion to its energy and time instead: a short group's\n")
	sb.WriteString("few iCount pulses quantize its power coarsely.\n")
	r.Text = sb.String()
	return r, nil
}

// AblationProxy analyzes node 1 of the 4 s Bounce run with proxy binding
// and without it. Unbound, the CPU time node 1 spends receiving node 4's
// packets stays on the interrupt proxies instead of the remote activity.
func AblationProxy(seed uint64) (*Report, error) {
	r := newReport("ablation-proxy", "Ablation: proxy binding (Bounce, node 1's CPU, 4 s)")
	in, err := runScenario(scenario.Spec{App: "bounce", Seed: seed, DurationUS: int64(4 * units.Second)})
	if err != nil {
		return nil, err
	}
	b := in.App.(*apps.Bounce)
	n := b.Nodes[0]
	bound, err := analyzeNodeWith(b.World, n, analysis.DefaultOptions())
	if err != nil {
		return nil, err
	}
	opts := analysis.DefaultOptions()
	opts.ResolveProxies = false
	unbound, err := analyzeNodeWith(b.World, n, opts)
	if err != nil {
		return nil, err
	}

	tb, tu := bound.TimeByActivity()[power.ResCPU], unbound.TimeByActivity()[power.ResCPU]
	either := maps.Clone(tu)
	maps.Copy(either, tb)
	labels := slices.Sorted(maps.Keys(either))
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %14s %14s\n", "Activity", "bound (ms)", "unbound (ms)")
	for _, l := range labels {
		fmt.Fprintf(&sb, "%-20s %14.3f %14.3f\n", labelName(b.World, l), float64(tb[l])/1000, float64(tu[l])/1000)
	}
	remote := b.Activities()[1]
	fmt.Fprintf(&sb, "\nWith binding, node 1 charges %.1f ms of CPU time to %s; without it, %.1f ms.\n",
		float64(tb[remote])/1000, labelName(b.World, remote), float64(tu[remote])/1000)
	r.Text = sb.String()
	r.Values["remote_cpu_ms_bound"] = float64(tb[remote]) / 1000
	r.Values["remote_cpu_ms_unbound"] = float64(tu[remote]) / 1000
	return r, nil
}

// AblationSplit runs one node whose radio receiver, a multi-activity
// device, serves activity A alone for 2 s and A and B together for 4 s,
// and charges it under the equal split and under first-takes-all.
func AblationSplit(seed uint64) (*Report, error) {
	r := newReport("ablation-split", "Ablation: splitting a multi-activity device (radio RX, 8 s)")
	w, n := mote.NewSingleNode(seed)
	k := n.K
	actA := k.DefineActivity("A")
	actB := k.DefineActivity("B")
	shared := core.NewMultiActivityDevice(n.Trk, power.ResRadioRx)
	ps := core.NewPowerStateVar(n.Trk, power.ResRadioRx, power.RadioRxOff)
	n.Board.AddSink(power.ResRadioRx, power.RadioRxOff)
	k.Boot(func() {
		k.CPUAct.Set(actA)
		_ = shared.Add(actA)
		ps.Set(power.RadioRxListen)
		t := k.NewTimer(func() { _ = shared.Add(actB) })
		t.StartOneShot(2 * units.Second)
		t2 := k.NewTimer(func() {
			_ = shared.Remove(actA)
			_ = shared.Remove(actB)
			ps.Set(power.RadioRxOff)
		})
		t2.StartOneShot(6 * units.Second)
		k.CPUAct.SetIdle()
	})
	w.Run(8 * units.Second)
	w.StampEnd()

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %12s %12s\n", "Policy", "A (mJ)", "B (mJ)")
	for _, p := range []struct {
		name   string
		policy analysis.SplitPolicy
		key    string
	}{
		{"equal split", analysis.SplitEqual, "actA_mJ_equal_split"},
		{"first takes all", analysis.SplitFirst, "actA_mJ_first_split"},
	} {
		opts := analysis.DefaultOptions()
		opts.Split = p.policy
		a, err := analyzeNodeWith(w, n, opts)
		if err != nil {
			return nil, err
		}
		byAct := a.EnergyByActivity()
		fmt.Fprintf(&sb, "%-16s %12.1f %12.1f\n", p.name, byAct[actA]/1000, byAct[actB]/1000)
		r.Values[p.key] = byAct[actA] / 1000
	}
	sb.WriteString("\nFirst-takes-all charges A for the 4 s B shares the receiver with it.\n")
	r.Text = sb.String()
	return r, nil
}

// AblationCounters compares the 12 s Blink run's full log with the
// fixed-memory alternative Section 5.1 discusses: a counter per entry type
// and per resource. The counters fit in a few words but keep no times, so
// no regression or attribution can run on them.
func AblationCounters(seed uint64) (*Report, error) {
	r := newReport("ablation-counters", "Ablation: logging vs counting (Blink, 12 s)")
	in, err := runScenario(scenario.Spec{App: "blink", Seed: seed, DurationUS: int64(12 * units.Second)})
	if err != nil {
		return nil, err
	}
	n := in.App.(*apps.Blink).Node
	counters := core.NewCounterSink()
	counters.RecordBatch(n.Log.Entries)
	logBytes := len(n.Log.Entries) * core.EntrySize
	keys := len(counters.PerType) + len(counters.PerRes)

	var sb strings.Builder
	fmt.Fprintf(&sb, "Log:      %d entries x %d bytes = %d bytes\n", len(n.Log.Entries), core.EntrySize, logBytes)
	fmt.Fprintf(&sb, "Counters: %d keys (%d entry types, %d resources)\n\n", keys, len(counters.PerType), len(counters.PerRes))
	for _, t := range slices.Sorted(maps.Keys(counters.PerType)) {
		fmt.Fprintf(&sb, "  type %-12s %6d\n", t, counters.PerType[t])
	}
	for _, res := range slices.Sorted(maps.Keys(counters.PerRes)) {
		fmt.Fprintf(&sb, "  res  %-12s %6d\n", in.World.Dict.ResourceName(res), counters.PerRes[res])
	}
	r.Text = sb.String()
	r.Values["log_bytes"] = float64(logBytes)
	r.Values["counter_keys"] = float64(keys)
	return r, nil
}
