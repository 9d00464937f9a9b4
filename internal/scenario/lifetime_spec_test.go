package scenario_test

import (
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/scenario"
)

func validBatterySpec() scenario.Spec {
	return scenario.Spec{App: "blink", DurationUS: 1_000_000, BatteryUAH: 10}
}

func TestSpecBatteryValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*scenario.Spec)
		wantErr string
	}{
		{"valid battery", func(s *scenario.Spec) {}, ""},
		{"negative capacity", func(s *scenario.Spec) { s.BatteryUAH = -1 }, "battery_uah"},
		{"bad node key", func(s *scenario.Spec) {
			s.BatteryNodeUAH = map[string]float64{"two": 5}
		}, "node id"},
		{"negative node capacity", func(s *scenario.Spec) {
			s.BatteryNodeUAH = map[string]float64{"2": -5}
		}, "battery_node_uah"},
		{"harvest without battery", func(s *scenario.Spec) {
			s.BatteryUAH = 0
			s.Harvest = &scenario.HarvestSpec{Profile: "constant", UA: 100}
		}, "harvest requires"},
		{"unknown harvest profile", func(s *scenario.Spec) {
			s.Harvest = &scenario.HarvestSpec{Profile: "solar", UA: 100}
		}, "harvest profile"},
		{"periodic harvest missing period", func(s *scenario.Spec) {
			s.Harvest = &scenario.HarvestSpec{Profile: "periodic", UA: 100}
		}, "periodic harvest"},
		{"valid periodic harvest", func(s *scenario.Spec) {
			s.Harvest = &scenario.HarvestSpec{Profile: "periodic", UA: 100, PeriodUS: 1000, OnUS: 300}
		}, ""},
		{"unknown death policy", func(s *scenario.Spec) { s.DeathPolicy = "reboot" }, "death_policy"},
		{"death policy without battery", func(s *scenario.Spec) {
			s.BatteryUAH = 0
			s.DeathPolicy = scenario.DeathPolicyHaltWorld
		}, "requires a finite battery"},
		{"valid halt-world", func(s *scenario.Spec) { s.DeathPolicy = scenario.DeathPolicyHaltWorld }, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validBatterySpec()
			c.mutate(&s)
			err := s.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

func TestNodeOptionsPerNodeBattery(t *testing.T) {
	s := validBatterySpec()
	s.BatteryNodeUAH = map[string]float64{"2": 50, "3": 0}
	s.Harvest = &scenario.HarvestSpec{Profile: "constant", UA: 200}
	s.DeathPolicy = scenario.DeathPolicyHaltWorld

	if o := s.NodeOptions(1); o.BatteryUAH != 10 || o.Harvester == nil || !o.HaltWorldOnDeath {
		t.Fatalf("node 1 options = %+v", o)
	}
	if o := s.NodeOptions(2); o.BatteryUAH != 50 || o.Harvester == nil || !o.HaltWorldOnDeath {
		t.Fatalf("node 2 options = %+v, want override 50 with the harvest and policy", o)
	}
	// An explicit 0 in the map gives that node an infinite supply: no
	// battery, no harvester, no death policy.
	if o := s.NodeOptions(3); o.BatteryUAH != 0 || o.Harvester != nil || o.HaltWorldOnDeath {
		t.Fatalf("node 3 should have infinite supply: %+v", o)
	}
}

func TestHarvestSpecBuildsPowerLayerSources(t *testing.T) {
	h, err := (&scenario.HarvestSpec{Profile: "constant", UA: 123}).Harvester()
	if err != nil {
		t.Fatal(err)
	}
	if ua, until := h.CurrentAt(0); ua != 123 || until != power.HorizonForever {
		t.Fatalf("constant harvester = (%v, %v)", ua, until)
	}
	h, err = (&scenario.HarvestSpec{Profile: "periodic", UA: 50, PeriodUS: 1000, OnUS: 200}).Harvester()
	if err != nil {
		t.Fatal(err)
	}
	if ua, until := h.CurrentAt(0); ua != 50 || until != 200 {
		t.Fatalf("periodic harvester at 0 = (%v, %v)", ua, until)
	}
	if ua, _ := h.CurrentAt(500); ua != 0 {
		t.Fatalf("periodic harvester dark phase = %v", ua)
	}
}

// TestBatteryFieldsSweepable: the override machinery reaches the new knobs,
// including the structured harvest object and clearing it with null.
func TestBatteryFieldsSweepable(t *testing.T) {
	m := scenario.Matrix{
		Base: scenario.Spec{App: "blink", DurationUS: 1_000_000, Seed: 1, BatteryUAH: 5},
		Sweep: map[string][]any{
			"battery_uah": {2.0, 4.0},
			"harvest": {
				nil,
				map[string]any{"profile": "constant", "ua": 100},
			},
			"death_policy": {scenario.DeathPolicyHaltNode, scenario.DeathPolicyHaltWorld},
		},
	}
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("expanded %d specs, want 8", len(specs))
	}
	harvested := 0
	for _, s := range specs {
		if s.BatteryUAH != 2 && s.BatteryUAH != 4 {
			t.Fatalf("battery_uah not swept: %v", s.BatteryUAH)
		}
		if s.Harvest != nil {
			harvested++
			if s.Harvest.Profile != "constant" || s.Harvest.UA != 100 {
				t.Fatalf("harvest override mangled: %+v", s.Harvest)
			}
		}
	}
	if harvested != 4 {
		t.Fatalf("%d harvested specs, want 4", harvested)
	}
}
