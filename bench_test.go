// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per exhibit), plus ablation benches for the design choices
// DESIGN.md calls out and micro-benchmarks of the logging fast path.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Headline numbers are attached to each benchmark via ReportMetric, so the
// bench output doubles as a compact reproduction summary.
package repro

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/icount"
	"repro/internal/linalg"
	"repro/internal/mote"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
)

const benchSeed = 1

// reportValues attaches selected experiment values as benchmark metrics.
func reportValues(b *testing.B, r *experiments.Report, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := r.Values[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkTable1PlatformInventory(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Table1()
	}
	reportValues(b, r, "sinks", "states")
}

func BenchmarkFigure10PulseLinearity(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure10(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "slope_mA_per_kHz", "r2")
}

func BenchmarkTable2Calibration(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Table2(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "led0_mA", "led1_mA", "led2_mA", "const_mA", "rel_err")
}

func BenchmarkFigure11BlinkTimeline(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure11(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "avg_power_mW", "recon_vs_meter_rel_err")
}

func BenchmarkTable3BlinkBreakdown(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Table3(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "total_mJ", "red_mJ", "cpu_mA")
}

func BenchmarkFigure12Bounce(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure12(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "cpu_ms_for_remote", "node1_rx")
}

func BenchmarkFigure13LPLInterference(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure13(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "fp17", "duty17", "duty26", "power_ratio")
}

func BenchmarkFigure14WakeupDetail(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure14(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "rx_listen_mW", "normal_ms", "fp_ms")
}

func BenchmarkFigure15TimerBug(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure15(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "rate_hz")
}

func BenchmarkFigure16DMAvsInterrupt(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure16(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "normal_ms", "dma_ms", "speedup")
}

func BenchmarkTable4LoggingCosts(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Table4(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "entries", "log_ms", "log_share_active")
}

func BenchmarkTable5InstrumentationLoC(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "total_loc")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationRegressionWeights compares the paper's w = sqrt(E*t)
// weighting against unweighted OLS on the same Blink trace, reporting the
// absolute error of the recovered LED0 draw (truth: 2.505 mA).
func BenchmarkAblationRegressionWeights(b *testing.B) {
	w, n, _ := apps.RunBlink(benchSeed, 48*units.Second, mote.DefaultOptions())
	tr := analysis.NewNodeTrace(n.ID, n.Log.Entries, n.Meter.PulseEnergy(), n.Volts)
	led0 := analysis.Predictor{Res: power.ResLED0, State: power.StateOn}
	_ = w

	var errW, errU float64
	for i := 0; i < b.N; i++ {
		ivs, vecs := tr.StateIntervals()
		regW, err := analysis.RunRegression(ivs, vecs, tr.PulseUJ, analysis.RegressionOptions{Weighted: true, IncludeConstant: true})
		if err != nil {
			b.Fatal(err)
		}
		optU := analysis.RegressionOptions{Weighted: false, IncludeConstant: true}
		regU, err := analysis.RunRegression(ivs, vecs, tr.PulseUJ, optU)
		if err != nil {
			b.Fatal(err)
		}
		errW = abs(regW.PowerMW[led0]/3.0 - 2.505)
		errU = abs(regU.PowerMW[led0]/3.0 - 2.505)
	}
	b.ReportMetric(errW*1000, "weighted_err_uA")
	b.ReportMetric(errU*1000, "unweighted_err_uA")
}

// BenchmarkAblationProxyBinding quantifies what proxy binding buys: with
// ResolveProxies off, the CPU time node 1 spends receiving node 4's packets
// stays stuck on the interrupt proxies instead of the remote activity.
func BenchmarkAblationProxyBinding(b *testing.B) {
	bounce := apps.NewBounce(benchSeed, apps.DefaultBounceConfig())
	bounce.Run(4 * units.Second)
	n := bounce.Nodes[0]
	remote := bounce.Activities()[1]
	tr := analysis.NewNodeTrace(n.ID, n.Log.Entries, n.Meter.PulseEnergy(), n.Volts)

	var withBind, withoutBind float64
	for i := 0; i < b.N; i++ {
		for _, resolve := range []bool{true, false} {
			opts := analysis.DefaultOptions()
			opts.ResolveProxies = resolve
			a, err := analysis.Analyze(tr, bounce.World.Dict, opts)
			if err != nil {
				b.Fatal(err)
			}
			ms := float64(a.TimeByActivity()[power.ResCPU][remote]) / 1000
			if resolve {
				withBind = ms
			} else {
				withoutBind = ms
			}
		}
	}
	b.ReportMetric(withBind, "remote_cpu_ms_bound")
	b.ReportMetric(withoutBind, "remote_cpu_ms_unbound")
}

// BenchmarkAblationSplitPolicy compares equal-split against first-takes-all
// accounting for a multi-activity device serving two activities.
func BenchmarkAblationSplitPolicy(b *testing.B) {
	w, n := mote.NewSingleNode(benchSeed)
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
	tr := analysis.NewNodeTrace(n.ID, n.Log.Entries, n.Meter.PulseEnergy(), n.Volts)

	var equalA, firstA float64
	for i := 0; i < b.N; i++ {
		for _, split := range []analysis.SplitPolicy{analysis.SplitEqual, analysis.SplitFirst} {
			opts := analysis.DefaultOptions()
			opts.Split = split
			a, err := analysis.Analyze(tr, w.Dict, opts)
			if err != nil {
				b.Fatal(err)
			}
			mj := a.EnergyByActivity()[actA] / 1000
			if split == analysis.SplitEqual {
				equalA = mj
			} else {
				firstA = mj
			}
		}
	}
	b.ReportMetric(equalA, "actA_mJ_equal_split")
	b.ReportMetric(firstA, "actA_mJ_first_split")
}

// BenchmarkAblationCounters compares full event logging against the
// fixed-memory counting alternative of Section 5.1.
func BenchmarkAblationCounters(b *testing.B) {
	var logBytes, counterKeys float64
	for i := 0; i < b.N; i++ {
		w, n, _ := apps.RunBlink(benchSeed, 12*units.Second, mote.DefaultOptions())
		_ = w
		logBytes = float64(len(n.Log.Entries) * core.EntrySize)

		counters := core.NewCounterSink()
		for _, e := range n.Log.Entries {
			counters.Record(e)
		}
		counterKeys = float64(len(counters.PerType) + len(counters.PerRes))
	}
	b.ReportMetric(logBytes, "log_bytes")
	b.ReportMetric(counterKeys, "counter_keys")
}

// BenchmarkNetworkFootprint regenerates the extra network-wide exhibit: the
// remote-energy share of a multihop flood (Section 5.3's butterfly effect).
func BenchmarkNetworkFootprint(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.NetworkFootprint(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportValues(b, r, "remote_frac", "nodes_in_footprint")
}

// --- Micro-benchmarks ----------------------------------------------------

// BenchmarkLogEntry measures the Go-side cost of the logging fast path (the
// mote-side cost is the modeled 102 cycles).
func BenchmarkLogEntry(b *testing.B) {
	clock := fixedClock(7)
	meter := fixedMeter(9)
	sink := core.NewCounterSink()
	trk := core.NewTracker(core.Config{Node: 1, Clock: clock, Meter: meter, Sink: sink})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trk.Log(core.EntryPowerState, power.ResLED0, uint16(i&1))
	}
}

type fixedClock uint32

func (c fixedClock) NowMicros() uint32 { return uint32(c) }

type fixedMeter uint32

func (m fixedMeter) ReadPulses() uint32 { return uint32(m) }

// BenchmarkTraceCodec measures entry encode+decode throughput.
func BenchmarkTraceCodec(b *testing.B) {
	e := core.Entry{Type: core.EntryPowerState, Res: 3, Time: 123456, IC: 789, Val: 1}
	var buf [trace.EntrySize]byte
	b.SetBytes(trace.EntrySize)
	for i := 0; i < b.N; i++ {
		trace.Encode(buf[:], e)
		if _, err := trace.Decode(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWLS measures the regression solver on a Blink-sized problem.
func BenchmarkWLS(b *testing.B) {
	x := linalg.NewMatrix(16, 5)
	y := make([]float64, 16)
	wts := make([]float64, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 4; j++ {
			if (i>>j)&1 == 1 {
				x.Set(i, j, 1)
			}
		}
		x.Set(i, 4, 1)
		y[i] = float64(i%7) + 1
		wts[i] = float64(i + 1)
	}
	for i := 0; i < b.N; i++ {
		if _, err := linalg.WLS(x, y, wts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeterRead measures the iCount read path.
func BenchmarkMeterRead(b *testing.B) {
	now := units.Ticks(0)
	m := icount.New(3.0, func() units.Ticks { return now })
	m.CurrentChanged(0, 5000)
	for i := 0; i < b.N; i++ {
		now += 10
		_ = m.ReadPulses()
	}
}

// BenchmarkBlinkSimulation measures raw simulation throughput (one 48 s
// Blink run per iteration).
func BenchmarkBlinkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, n, _ := apps.RunBlink(benchSeed, 48*units.Second, mote.DefaultOptions())
		if len(n.Log.Entries) == 0 {
			b.Fatal("empty log")
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
