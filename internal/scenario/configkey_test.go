// The TestConfigKey* tests pin the cache-key contract at runtime: every Spec
// field has exactly one declared fate, excluded fields provably do not move
// the key, and identity fields never split replica groups. quantovet's
// configkey analyzer checks the same partition statically (and its meta-test
// in internal/lint asserts the analyzer reads the same exclusion list these
// tests iterate), so code, lint, and tests fail together or not at all.
package scenario

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// mustTraffic decodes a traffic spec literal for test fixtures.
func mustTraffic(t *testing.T, raw string) *traffic.Spec {
	t.Helper()
	var ts traffic.Spec
	if err := json.Unmarshal([]byte(raw), &ts); err != nil {
		t.Fatalf("traffic literal: %v", err)
	}
	return &ts
}

// specJSONFields returns the wire name of every serialized Spec field, via
// the same reflection rules encoding/json applies.
func specJSONFields(t *testing.T) []string {
	t.Helper()
	var out []string
	rt := reflect.TypeOf(Spec{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch name {
		case "-":
			continue
		case "":
			name = f.Name
		}
		out = append(out, name)
	}
	return out
}

func TestConfigKeyFieldPartition(t *testing.T) {
	fate := make(map[string]string)
	for _, l := range []struct {
		name   string
		fields []string
	}{
		{"included", ConfigKeyIncluded()},
		{"excluded", ConfigKeyExcluded()},
		{"identity", ConfigKeyIdentity()},
	} {
		for _, f := range l.fields {
			if prev, ok := fate[f]; ok {
				t.Errorf("field %q in both %s and %s lists", f, prev, l.name)
			}
			fate[f] = l.name
		}
	}
	fields := specJSONFields(t)
	for _, f := range fields {
		if _, ok := fate[f]; !ok {
			t.Errorf("Spec field %q has no declared ConfigKey fate", f)
		}
	}
	if len(fate) != len(fields) {
		declared := make([]string, 0, len(fate))
		for f := range fate {
			declared = append(declared, f)
		}
		sort.Strings(declared)
		sort.Strings(fields)
		t.Errorf("fate lists declare %d fields, Spec serializes %d:\nlists: %v\nspec:  %v",
			len(fate), len(fields), declared, fields)
	}
}

func TestConfigKeyExclusionInvariance(t *testing.T) {
	// A base spec exercising enough of the surface that each excluded knob
	// is meaningful: a placed multi-node relay with shaped traffic.
	base := Spec{
		App: "relay", DurationUS: 1_000_000, Nodes: 4, Seed: 7,
		Placement: PlacementGrid,
		Traffic:   mustTraffic(t, `{"shape":"constant","rps":2}`),
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
	key := base.ConfigKey()

	// Non-default sample values for every excluded field. A new entry on the
	// exclusion list fails here until it gets a sample — adding an exclusion
	// forces extending the invariance pin.
	samples := map[string]any{
		"record_traffic": true,
	}
	for _, field := range ConfigKeyExcluded() {
		v, ok := samples[field]
		if !ok {
			t.Fatalf("excluded field %q has no invariance sample; add one so the exclusion stays pinned", field)
		}
		sp, err := override(&base, field, v)
		if err != nil {
			t.Fatalf("override %s=%v: %v", field, v, err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("spec with %s=%v invalid: %v", field, v, err)
		}
		if got := sp.ConfigKey(); got != key {
			t.Errorf("setting excluded field %s=%v changed ConfigKey:\nbase: %s\ngot:  %s", field, v, key, got)
		}
	}
}

func TestConfigKeyIdentityInvariance(t *testing.T) {
	a := Spec{App: "blink", DurationUS: 1000, Name: "alpha", Seed: 1}
	b := Spec{App: "blink", DurationUS: 1000, Name: "omega", Seed: 99}
	if a.ConfigKey() != b.ConfigKey() {
		t.Errorf("identity fields split the key:\n%s\n%s", a.ConfigKey(), b.ConfigKey())
	}
}

func TestConfigKeyIncludedFieldsMoveKey(t *testing.T) {
	// Spot-check that representative included fields actually move the key —
	// the converse guard, so the partition test cannot be satisfied by
	// dumping every field into the exclusion list.
	base := Spec{App: "relay", DurationUS: 1_000_000}
	key := base.ConfigKey()
	for field, v := range map[string]any{
		"nodes":     5,
		"channel":   17,
		"traffic":   json.RawMessage(`{"shape":"constant","rps":2}`),
		"placement": PlacementLine,
	} {
		sp, err := override(&base, field, v)
		if err != nil {
			t.Fatalf("override %s: %v", field, err)
		}
		if sp.ConfigKey() == key {
			t.Errorf("setting included field %s=%v did not change ConfigKey", field, v)
		}
	}
}
