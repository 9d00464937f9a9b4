package apps

import (
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

func TestSenseSendActivityEnergySplit(t *testing.T) {
	s := mustNew(t, NewSenseSend, scenario.Spec{Seed: 21})
	s.Run(30 * units.Second)

	a := analyzeNodes(t, s.World, s.Sensor).Nodes[s.Sensor.ID]
	byAct := a.EnergyByActivity()

	hum, temp, pkt := byAct[s.ActHum], byAct[s.ActTemp], byAct[s.ActPkt]
	if hum <= 0 || temp <= 0 || pkt <= 0 {
		t.Fatalf("energies: hum=%.2f temp=%.2f pkt=%.2f, want all positive", hum, temp, pkt)
	}
	// The temperature conversion (75 ms) is longer than humidity (55 ms),
	// so ACT_TEMP must cost more than ACT_HUM.
	if temp <= hum {
		t.Errorf("temp energy %.2f <= hum energy %.2f; conversion times say otherwise", temp, hum)
	}
}

func TestSenseSendSensorTimeAttribution(t *testing.T) {
	s := mustNew(t, NewSenseSend, scenario.Spec{Seed: 21})
	s.Run(30 * units.Second)
	a := analyzeNodes(t, s.World, s.Sensor).Nodes[s.Sensor.ID]
	// 6 sampling rounds in 30 s at 5 s period (minus edge effects): the
	// sensor device should carry ACT_HUM for ~55 ms per round and ACT_TEMP
	// for ~75 ms per round.
	times := a.TimeByActivity()[power.ResSensor]
	humMS := float64(times[s.ActHum]) / 1000
	tempMS := float64(times[s.ActTemp]) / 1000
	if humMS < 4*55 || humMS > 7*56 {
		t.Errorf("sensor time under ACT_HUM = %.1f ms, want ~5x55", humMS)
	}
	if tempMS < 4*75 || tempMS > 7*76 {
		t.Errorf("sensor time under ACT_TEMP = %.1f ms, want ~5x75", tempMS)
	}
}

func TestSenseSendBaseStationChargedToSenderActivity(t *testing.T) {
	s := mustNew(t, NewSenseSend, scenario.Spec{Seed: 21})
	s.Run(30 * units.Second)
	aB := analyzeNodes(t, s.World, s.Base).Nodes[s.Base.ID]
	// The base station's LED toggling and reception processing run under
	// the sensor node's ACT_PKT.
	cpu := aB.TimeByActivity()[power.ResCPU]
	if cpu[s.ActPkt] <= 0 {
		t.Error("base station has no CPU time under the sender's ACT_PKT")
	}
	// Cross-check the label renders with the sensing node's origin.
	name := s.World.Dict.LabelName(s.ActPkt)
	if !strings.HasPrefix(name, "2:") {
		t.Errorf("ACT_PKT renders as %q, want origin prefix 2:", name)
	}
}
