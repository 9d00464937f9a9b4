package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

// Figure15 reproduces the surprise oscillator-calibration finding: with the
// TinyOS default configuration, TimerA1 fires 16 times per second for DCO
// calibration even though the application never asked for asynchronous
// serial communication.
func Figure15(seed uint64) (*Report, error) {
	r := newReport("fig15", "Unexpected 16 Hz TimerA1 oscillator-calibration interrupt")
	timerBug := func(calibrate bool) (*apps.TimerBug, error) {
		in, err := runScenario(scenario.Spec{
			App:          "timerbug",
			Seed:         seed,
			CalibrateDCO: calibrate,
			DurationUS:   int64(3 * units.Second),
		})
		if err != nil {
			return nil, err
		}
		return in.App.(*apps.TimerBug), nil
	}
	tb, err := timerBug(true)
	if err != nil {
		return nil, err
	}
	a, err := analyzeNode(tb.World, tb.Node)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	lo, hi := int64(1*units.Second), int64(2*units.Second)
	sb.WriteString("Node 32, one-second window (note the periodic int_TIMERA1 band):\n")
	resources := []core.ResourceID{power.ResCPU, power.ResLED0, power.ResLED2}
	sb.WriteString(analysis.RenderGantt(a.ActivityRows(resources, lo, hi), lo, hi, 96))

	rate := tb.CalibrationRate()
	fmt.Fprintf(&sb, "\nMeasured TimerA1 firing rate: %.2f Hz (paper: 16 Hz)\n", rate)

	// The fixed configuration for contrast.
	fixed, err := timerBug(false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "With calibration disabled: %.2f Hz\n", fixed.CalibrationRate())
	fmt.Fprintf(&sb, "Log entries: %d (buggy) vs %d (fixed)\n",
		len(tb.Node.Log.Entries), len(fixed.Node.Log.Entries))

	r.Text = sb.String()
	r.Values["rate_hz"] = rate
	r.Values["fixed_rate_hz"] = fixed.CalibrationRate()
	r.Values["entries_buggy"] = float64(len(tb.Node.Log.Entries))
	r.Values["entries_fixed"] = float64(len(fixed.Node.Log.Entries))
	return r, nil
}

// Figure16 reproduces the DMA-versus-interrupt comparison: the timing of one
// packet transmission with the CPU feeding the radio over the bus with an
// interrupt every two bytes versus a single DMA transfer.
func Figure16(seed uint64) (*Report, error) {
	r := newReport("fig16", "Packet transmission: interrupt-driven vs DMA bus transfer")
	const payload = 30
	startAt := 100 * units.Millisecond

	run := func(useDMA bool) (*apps.DMACompare, *analysis.Analysis, units.Ticks, error) {
		in, err := runScenario(scenario.Spec{
			App:          "dma",
			Seed:         seed,
			UseDMA:       useDMA,
			PayloadBytes: payload,
			StartAtUS:    int64(startAt),
			DurationUS:   int64(400 * units.Millisecond),
		})
		if err != nil {
			return nil, nil, 0, err
		}
		d := in.App.(*apps.DMACompare)
		start, done, ok := d.Timing()
		if !ok {
			return nil, nil, 0, fmt.Errorf("send (useDMA=%v) did not complete", useDMA)
		}
		a, err := analyzeNode(d.World, d.Node)
		if err != nil {
			return nil, nil, 0, err
		}
		return d, a, done - start, nil
	}

	_, aNorm, tNorm, err := run(false)
	if err != nil {
		return nil, err
	}
	_, aDMA, tDMA, err := run(true)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	resources := []core.ResourceID{power.ResCPU, power.ResRadioTx}
	lo := int64(startAt) - 2000
	window := int64(tNorm) + 6000
	sb.WriteString("Normal (interrupt per 2 bytes):\n")
	sb.WriteString(analysis.RenderGantt(aNorm.ActivityRows(resources, lo, lo+window), lo, lo+window, 96))
	sb.WriteString("\nDMA:\n")
	sb.WriteString(analysis.RenderGantt(aDMA.ActivityRows(resources, lo, lo+window), lo, lo+window, 96))

	fmt.Fprintf(&sb, "\nSubmit-to-done: normal %.2f ms, DMA %.2f ms  (ratio %.2fx; paper: \"at least twice as fast\")\n",
		float64(tNorm)/1000, float64(tDMA)/1000, float64(tNorm)/float64(tDMA))

	// CPU time consumed by the transfer proxies in each mode.
	cpuNorm := proxyCPUTime(aNorm, "int_UART0RX")
	cpuDMA := proxyCPUTime(aDMA, "int_DACDMA")
	fmt.Fprintf(&sb, "CPU time in bus-transfer interrupts: normal %.2f ms, DMA %.2f ms\n",
		float64(cpuNorm)/1000, float64(cpuDMA)/1000)

	r.Text = sb.String()
	r.Values["normal_ms"] = float64(tNorm) / 1000
	r.Values["dma_ms"] = float64(tDMA) / 1000
	r.Values["speedup"] = float64(tNorm) / float64(tDMA)
	r.Values["cpu_normal_ms"] = float64(cpuNorm) / 1000
	r.Values["cpu_dma_ms"] = float64(cpuDMA) / 1000
	return r, nil
}

// proxyCPUTime sums the CPU's raw time under the named proxy activity.
func proxyCPUTime(a *analysis.Analysis, name string) int64 {
	var label core.Label
	found := false
	for _, l := range slices.Sorted(maps.Keys(a.Dict.Activities)) {
		if a.Dict.Activities[l] == name && l.Origin() == a.Trace.Node {
			label, found = l, true
			break
		}
	}
	if !found {
		return 0
	}
	var total int64
	if tl := a.Single[power.ResCPU]; tl != nil {
		for _, seg := range tl.Segs {
			if seg.Label == label {
				total += seg.End - seg.Start
			}
		}
	}
	return total
}
