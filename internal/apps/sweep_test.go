package apps

import (
	"fmt"
	"testing"

	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/units"
)

// TestLPLCheckPeriodSweep sweeps the LPL check period (the knob that trades
// latency for energy in low-power listening) and verifies the expected
// monotonic responses: longer periods mean lower radio duty cycle and lower
// average power, while the false-positive *rate* stays tied to the
// interferer's duty cycle, not the period.
func TestLPLCheckPeriodSweep(t *testing.T) {
	periods := []units.Ticks{250 * units.Millisecond, 500 * units.Millisecond, units.Second}
	var duties, powers, fps []float64
	for _, p := range periods {
		l := newApp(NewLPL, scenario.Spec{Seed: 11, Channel: 17, CheckPeriodUS: int64(p)})
		l.Run(60 * units.Second)
		a := analyzeNodes(t, l.World, l.Node).Nodes[l.Node.ID]
		duties = append(duties, float64(a.ActiveTimeUS(power.ResRadioReg))/float64(a.Span()))
		powers = append(powers, a.AveragePowerMW())
		fps = append(fps, l.FalsePositiveRate())
	}
	for i := 1; i < len(periods); i++ {
		if duties[i] >= duties[i-1] {
			t.Errorf("duty did not fall with period: %v", duties)
		}
		if powers[i] >= powers[i-1] {
			t.Errorf("power did not fall with period: %v", powers)
		}
	}
	// FP rate is a property of the interferer, not of the check period.
	for i := range fps {
		if fps[i] < 0.08 || fps[i] > 0.35 {
			t.Errorf("fp rate at period %v = %.3f, want ~0.18 regardless of period", periods[i], fps[i])
		}
	}
}

// TestLPLWiFiDutySweep: the false-positive rate tracks the interferer's
// channel occupancy.
func TestLPLWiFiDutySweep(t *testing.T) {
	// Gap means of 45 ms and 10 ms give ~10% and ~33% WiFi duty.
	type pt struct {
		gap  units.Ticks
		want float64
	}
	pts := []pt{
		{45 * units.Millisecond, 0.10},
		{23 * units.Millisecond, 0.179},
		{10 * units.Millisecond, 0.33},
	}
	var rates []float64
	for _, p := range pts {
		l := newApp(NewLPL, scenario.Spec{Seed: 11, Channel: 17, WiFiGapUS: int64(p.gap)})
		l.Run(80 * units.Second)
		rate := l.FalsePositiveRate()
		rates = append(rates, rate)
		if rate < p.want*0.5 || rate > p.want*1.7 {
			t.Errorf("gap %v: fp rate = %.3f, want ~%.3f", p.gap, rate, p.want)
		}
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Errorf("fp rate not monotonic in interferer duty: %v", rates)
	}
}

// TestBounceHoldTimeControlsThroughput: halving the hold time roughly
// doubles the packet exchange rate.
func TestBounceHoldTimeControlsThroughput(t *testing.T) {
	run := func(hold units.Ticks) uint64 {
		b := mustNew(t, NewBounce, scenario.Spec{Seed: 3})
		b.HoldTime = hold
		b.Run(6 * units.Second)
		recv, _ := b.Stats()
		return recv[0] + recv[1]
	}
	slow := run(400 * units.Millisecond)
	fast := run(200 * units.Millisecond)
	if fast <= slow {
		t.Errorf("faster hold should exchange more packets: fast=%d slow=%d", fast, slow)
	}
	ratio := float64(fast) / float64(slow)
	if ratio < 1.4 || ratio > 2.6 {
		t.Errorf("throughput ratio = %.2f, want ~2", ratio)
	}
}

// TestSendDrivenAppsSurviveOverload runs the send-driven apps past the
// rates their radio and sensor pipelines can carry: short bounce hold
// times and a shaped bounce injection pile packets onto a busy radio, and a
// 2 ms sampling period outruns the ~130 ms sensor pipeline. Every run must
// build, run and analyze without error, dropping or skipping the excess
// instead of panicking or queueing it.
func TestSendDrivenAppsSurviveOverload(t *testing.T) {
	cases := []struct {
		spec scenario.Spec
		// hold, when set, replaces Bounce's hold time, in microseconds.
		hold int64
	}{
		{scenario.Spec{App: "bounce"}, 500},
		{scenario.Spec{App: "bounce"}, 1000},
		{scenario.Spec{App: "bounce"}, 2000},
		{scenario.Spec{App: "bounce"}, 10000},
		{scenario.Spec{App: "bounce", Traffic: &traffic.Spec{Shape: traffic.ShapeConstant, RPS: 20}}, 0},
		{scenario.Spec{App: "sensesend", PeriodUS: 2000}, 0},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 5; seed++ {
			spec := c.spec
			spec.Seed = seed
			spec.DurationUS = int64(4 * units.Second)
			t.Run(fmt.Sprintf("%s/hold=%d/period=%d/traffic=%v/seed=%d",
				spec.App, c.hold, spec.PeriodUS, spec.Traffic != nil, seed), func(t *testing.T) {
				in, err := scenario.Build(spec)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if c.hold != 0 {
					in.App.(*Bounce).HoldTime = units.Ticks(c.hold)
				}
				in.Run()
				r, err := in.Finish()
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if spec.App != "sensesend" {
					return
				}
				m := r.Metrics
				inFlight := m["samples_offered"] - m["samples_skipped"] - m["reports_sent"]
				if inFlight != 0 && inFlight != 1 {
					t.Errorf("offered %v != skipped %v + sent %v (+1 in flight)",
						m["samples_offered"], m["samples_skipped"], m["reports_sent"])
				}
			})
		}
	}
}

// TestBlinkEnergyScalesWithDuration: a 24 s Blink uses about half the
// energy of a 48 s one (the workload is periodic and steady on average).
func TestBlinkEnergyScalesWithDuration(t *testing.T) {
	run := func(d units.Ticks) float64 {
		_, n, _ := RunBlink(1, d)
		return n.Meter.EnergyMicroJoules()
	}
	e24 := run(24 * units.Second)
	e48 := run(48 * units.Second)
	ratio := e48 / e24
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("energy ratio 48s/24s = %.3f, want ~2", ratio)
	}
}
