package apps

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/mote"
	"repro/internal/scenario"
	"repro/internal/units"
)

// mustNew builds an app with a constructor that can fail, in a new world
// seeded with spec.Seed, and fails the test if it does. It calls the
// constructor directly, without the Validate that scenario.Build runs, so a
// test can build what Validate rejects.
func mustNew[App any](t testing.TB, build func(scenario.Spec, *mote.World) (App, error), spec scenario.Spec) App {
	t.Helper()
	app, err := build(spec, mote.NewWorld(spec.Seed))
	if err != nil {
		t.Fatalf("build %T: %v", app, err)
	}
	return app
}

// newApp builds an app with a constructor that cannot fail, in a new world
// seeded with spec.Seed.
func newApp[App any](build func(scenario.Spec, *mote.World) App, spec scenario.Spec) App {
	return build(spec, mote.NewWorld(spec.Seed))
}

// analyzeNodes analyzes the nodes' logs under the default options through
// one NetworkAnalyzer; each node's Analysis is in the Network's Nodes.
func analyzeNodes(t testing.TB, w *mote.World, nodes ...*mote.Node) *analysis.Network {
	t.Helper()
	na := analysis.NewNetworkAnalyzer(w.Dict, analysis.DefaultOptions(), 0, 0)
	for _, n := range nodes {
		na.AddNode(n.ID, n.Meter.PulseEnergy(), n.Volts).RecordBatch(n.Log.Entries)
	}
	net, err := na.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSenseSendDeliversReports(t *testing.T) {
	s := mustNew(t, NewSenseSend, scenario.Spec{Seed: 21})
	s.Run(26 * units.Second)
	sent, received := s.Stats()
	if sent < 4 {
		t.Errorf("sent = %d, want >= 4 over 26s at 5s period", sent)
	}
	if received != sent {
		t.Errorf("received = %d, want %d (lossless medium)", received, sent)
	}
}

func TestSenseSendSensorConversions(t *testing.T) {
	s := mustNew(t, NewSenseSend, scenario.Spec{Seed: 21})
	s.Run(26 * units.Second)
	if reads := s.Sensor.Sensor.Reads(); reads < 8 {
		t.Errorf("sensor reads = %d, want >= 8 (two per report)", reads)
	}
}

func TestTimerBugCalibrationRate(t *testing.T) {
	tb := newApp(NewTimerBug, scenario.Spec{Seed: 31, CalibrateDCO: true})
	tb.Run(4 * units.Second)
	rate := tb.CalibrationRate()
	// Figure 15: TimerA1 fires 16 times per second.
	if math.Abs(rate-16) > 1.5 {
		t.Errorf("calibration rate = %.2f Hz, want ~16 Hz", rate)
	}
}

func TestTimerBugFixedHasNoCalibration(t *testing.T) {
	tb := newApp(NewTimerBug, scenario.Spec{Seed: 31})
	tb.Run(4 * units.Second)
	if rate := tb.CalibrationRate(); rate != 0 {
		t.Errorf("calibration rate with DCO disabled = %.2f Hz, want 0", rate)
	}
}

func TestDMATransferAtLeastTwiceAsFast(t *testing.T) {
	run := func(useDMA bool) units.Ticks {
		d := mustNew(t, NewDMACompare, scenario.Spec{
			Seed: 41, UseDMA: useDMA, PayloadBytes: 30, StartAtUS: int64(100 * units.Millisecond),
		})
		d.Run(400 * units.Millisecond)
		start, done, ok := d.Timing()
		if !ok {
			t.Fatalf("send (useDMA=%v) never completed", useDMA)
		}
		return done - start
	}
	normal := run(false)
	dma := run(true)
	if normal <= 0 || dma <= 0 {
		t.Fatalf("bad timings: normal=%v dma=%v", normal, dma)
	}
	// Figure 16: "the DMA transfer is at least twice as fast as the
	// interrupt-driven transfer".
	if float64(normal) < 1.6*float64(dma) {
		t.Errorf("normal=%v dma=%v; want normal >= 1.6x dma", normal, dma)
	}
}

func TestDMAPacketStillDelivered(t *testing.T) {
	for _, useDMA := range []bool{false, true} {
		d := mustNew(t, NewDMACompare, scenario.Spec{
			Seed: 43, UseDMA: useDMA, PayloadBytes: 30, StartAtUS: int64(100 * units.Millisecond),
		})
		d.Run(400 * units.Millisecond)
		_, received := d.Peer.AM.Stats()
		if received != 1 {
			t.Errorf("useDMA=%v: peer received %d packets, want 1", useDMA, received)
		}
	}
}
