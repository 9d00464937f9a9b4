package scenario_test

import (
	"encoding/json"
	"testing"

	_ "repro/internal/apps" // registers the paper's workloads
	"repro/internal/scenario"
)

// FuzzSpecJSON feeds arbitrary bytes through the spec pipeline a sweep file
// travels: JSON decode, Validate, ConfigKey, and — when the spec validates —
// Build. None of it may panic; malformed or hostile input must surface as an
// error (or a decode failure), never a crash. This is the door specs arrive
// through from user-written matrix files and the CLI.
func FuzzSpecJSON(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"app":"blink","duration_us":1000000}`,
		`{"app":"relay","duration_us":2000000,"nodes":8,"origins":3,"placement":"line"}`,
		`{"app":"relay","duration_us":1000000,"traffic":{"shape":"constant","rps":10}}`,
		`{"app":"bounce","duration_us":1000000,"traffic":{"shape":"ramp","start_rps":1,"step_rps":2,"target_rps":9,"slot_us":500000}}`,
		`{"app":"sensesend","duration_us":1000000,"traffic":{"shape":"onoff","rps":20,"on_alpha":1.2}}`,
		`{"app":"relay","traffic":{"shape":"burst","rps":1,"burst_rps":50,"burst_us":1000,"period_us":100000}}`,
		`{"app":"relay","traffic":{"shape":"replay","file":"/nonexistent"}}`,
		`{"app":"relay","traffic":{"shape":"constant","rps":-1}}`,
		`{"app":"relay","record_traffic":true}`, // a field specs no longer have
		`{"app":"blink","battery_uah":0.5,"death_policy":"halt_world"}`,
		`{"app":"relay","duration_us":1e18,"traffic":{"shape":"diurnal","rps":1e308,"period_us":1}}`,
		`{"app":"relay","duration_us":2000000,"nodes":6,"placement":"line","routing":"ctp"}`,
		`{"app":"relay","duration_us":2000000,"nodes":9,"placement":"grid","routing":"ctp","beacon_period_ms":500,"battery_node_uah":{"5":60}}`,
		`{"app":"relay","duration_us":2000000,"nodes":6,"placement":"line","mobility":"waypoint","speed_mps":8}`,
		`{"app":"relay","duration_us":2000000,"nodes":6,"placement":"rgg","routing":"ctp","mobility":"drift"}`,
		`{"app":"blink","routing":"ctp"}`,
		`{"app":"relay","placement":"line","routing":"dsr","beacon_period_ms":-5,"speed_mps":1e308}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return // a spec is small; huge inputs only slow the fuzzer down
		}
		var s scenario.Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		_ = s.ConfigKey()
		if err := s.Validate(); err != nil {
			return
		}
		// Keep validated fuzz builds cheap: tiny worlds, no files read beyond
		// the replay path (which errors cleanly on garbage), no running.
		if s.Nodes > 64 {
			return
		}
		if in, err := scenario.Build(s); err == nil && in == nil {
			t.Fatal("Build returned nil instance with nil error")
		}
	})
}
