package medium

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestChannelFrequencies(t *testing.T) {
	if f := ChannelFreqMHz(11); f != 2405 {
		t.Errorf("ch11 = %v", f)
	}
	if f := ChannelFreqMHz(26); f != 2480 {
		t.Errorf("ch26 = %v, want 2480 (paper)", f)
	}
	if f := WiFiFreqMHz(6); f != 2437 {
		t.Errorf("wifi ch6 = %v, want 2437 (paper)", f)
	}
}

func TestSpectralOverlap(t *testing.T) {
	// Channel 17 (2435 MHz) sits inside WiFi channel 6's 22 MHz band.
	if o := SpectralOverlap(2437, ChannelFreqMHz(17)); o != 1 {
		t.Errorf("overlap(ch6, ch17) = %v, want 1", o)
	}
	// Channel 26 (2480 MHz) is far outside.
	if o := SpectralOverlap(2437, ChannelFreqMHz(26)); o != 0 {
		t.Errorf("overlap(ch6, ch26) = %v, want 0", o)
	}
	// A channel half-in half-out.
	if o := SpectralOverlap(2437, 2448); math.Abs(o-0.5) > 1e-9 {
		t.Errorf("edge overlap = %v, want 0.5", o)
	}
}

type fakeReceiver struct {
	node   core.NodeID
	frames []*Frame
}

func (r *fakeReceiver) Node() core.NodeID { return r.node }
func (r *fakeReceiver) FrameStart(f *Frame) bool {
	r.frames = append(r.frames, f)
	return true
}

func TestTransmitDeliversToOthers(t *testing.T) {
	s := sim.New()
	m := New(s)
	r1 := &fakeReceiver{node: 1}
	r2 := &fakeReceiver{node: 2}
	r3 := &fakeReceiver{node: 3}
	m.Register(r1)
	m.Register(r2)
	m.Register(r3)

	f := &Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640}
	m.Transmit(f)
	if len(r1.frames) != 0 {
		t.Error("sender must not hear its own frame")
	}
	if len(r2.frames) != 1 || len(r3.frames) != 1 {
		t.Errorf("delivery counts: r2=%d r3=%d", len(r2.frames), len(r3.frames))
	}
	if m.Frames() != 1 {
		t.Errorf("Frames = %d", m.Frames())
	}
}

func TestEnergyOnDuringTransmission(t *testing.T) {
	s := sim.New()
	m := New(s)
	f := &Frame{Src: 1, Channel: 26, Bytes: 20, Airtime: 640}
	m.Transmit(f)
	if e := m.EnergyOn(26, s.Now()); e < 1 {
		t.Errorf("energy during tx = %v, want >= 1", e)
	}
	if e := m.EnergyOn(17, s.Now()); e != 0 {
		t.Errorf("energy on other channel = %v, want 0", e)
	}
	// After the airtime elapses the channel clears.
	s.Run(1000)
	if e := m.EnergyOn(26, s.Now()); e != 0 {
		t.Errorf("energy after tx = %v, want 0", e)
	}
}

func TestWiFiDutyCycleNearTarget(t *testing.T) {
	// 5 ms bursts, 23 ms gaps: ~17.9% duty, the paper's false-positive
	// rate on the overlapping channel.
	w := NewWiFiSource(6, 5*units.Millisecond, 23*units.Millisecond, 99)
	var on int
	const n = 200000
	const span = 100 * units.Second
	for i := 0; i < n; i++ {
		if w.ActiveAt(units.Ticks(i) * span / n) {
			on++
		}
	}
	duty := float64(on) / n
	if duty < 0.15 || duty > 0.21 {
		t.Errorf("duty = %v, want ~0.179", duty)
	}
}

func TestWiFiActiveAtConsistentWithBursts(t *testing.T) {
	w := NewWiFiSource(6, 5*units.Millisecond, 23*units.Millisecond, 7)
	// Sample the indicator; it must match the reference's exact integral
	// over the same bursts closely.
	var on int
	const n = 200000
	const span = 20 * units.Second
	for i := 0; i < n; i++ {
		tm := units.Ticks(i) * span / n
		if w.ActiveAt(tm) {
			on++
		}
	}
	sampled := float64(on) / n
	duty := newRefWiFi(5*units.Millisecond, 23*units.Millisecond, 7).dutyCycle(0, span)
	if math.Abs(sampled-duty) > 0.01 {
		t.Errorf("sampled %v vs integrated %v", sampled, duty)
	}
}

func TestWiFiDeterminism(t *testing.T) {
	a := NewWiFiSource(6, 5000, 23000, 1234)
	b := NewWiFiSource(6, 5000, 23000, 1234)
	for tm := units.Ticks(0); tm < units.Second; tm += 777 {
		if a.ActiveAt(tm) != b.ActiveAt(tm) {
			t.Fatalf("sources diverged at %v", tm)
		}
	}
}

func TestWiFiInterferenceSeenOnOverlappingChannelOnly(t *testing.T) {
	s := sim.New()
	m := New(s)
	w := NewWiFiSource(6, 5*units.Millisecond, 23*units.Millisecond, 42)
	m.AddWiFi(w)
	// Find a burst instant.
	var at units.Ticks
	for tm := units.Ticks(0); tm < units.Second; tm += 100 {
		if w.ActiveAt(tm) {
			at = tm
			break
		}
	}
	if e := m.EnergyOn(17, at); e <= 0 {
		t.Error("channel 17 should see WiFi energy during a burst")
	}
	if e := m.EnergyOn(26, at); e != 0 {
		t.Errorf("channel 26 sees %v, want 0", e)
	}
}
