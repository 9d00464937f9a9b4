// ConfigKey is the cache key of every sweep result: seed derivation hashes it
// and Aggregate groups by it. Its one rule is that a spec's key is the spec's
// JSON without name and seed, which name a run rather than configure it.
// The two tests below check that rule field by field over the Spec's
// reflected fields, so a field added later is part of the key without any
// list to update.
package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// identityFields name a run rather than configure it; ConfigKey drops them.
var identityFields = map[string]bool{"name": true, "seed": true}

// fieldVariant is the base spec with one serialized field set to a sample.
type fieldVariant struct {
	field string
	value any
	spec  *Spec
}

// configKeyVariants returns a base spec and, for every serialized Spec field,
// a copy of it with that field set to a non-default sample.
func configKeyVariants(t *testing.T) (Spec, []fieldVariant) {
	t.Helper()
	base := Spec{App: "relay", DurationUS: 1_000_000}
	// Fields whose kind has no generic sample take a literal one.
	literal := map[string]any{
		"traffic":          json.RawMessage(`{"shape":"constant","rps":2}`),
		"harvest":          json.RawMessage(`{"profile":"constant","ua":5}`),
		"battery_node_uah": map[string]float64{"2": 60},
	}
	var out []fieldVariant
	rt := reflect.TypeOf(Spec{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		v, ok := literal[name]
		if !ok {
			switch f.Type.Kind() {
			case reflect.String:
				v = "sample"
			case reflect.Bool:
				v = true
			case reflect.Int, reflect.Int64, reflect.Uint64:
				v = 7
			case reflect.Float64:
				v = 0.5
			default:
				t.Fatalf("Spec field %q (%s) has no sample; add a literal one", name, f.Type)
			}
		}
		sp, err := override(&base, name, v)
		if err != nil {
			t.Fatalf("override %s=%v: %v", name, v, err)
		}
		out = append(out, fieldVariant{field: name, value: v, spec: sp})
	}
	return base, out
}

func TestConfigKeyIdentityInvariance(t *testing.T) {
	base, variants := configKeyVariants(t)
	key := base.ConfigKey()
	seen := 0
	for _, fv := range variants {
		if !identityFields[fv.field] {
			continue
		}
		seen++
		if got := fv.spec.ConfigKey(); got != key {
			t.Errorf("setting identity field %s=%v changed ConfigKey:\nbase: %s\ngot:  %s",
				fv.field, fv.value, key, got)
		}
	}
	if seen != len(identityFields) {
		t.Errorf("found %d of the %d identity fields among the Spec's fields", seen, len(identityFields))
	}
}

func TestConfigKeyIncludedFieldsMoveKey(t *testing.T) {
	base, variants := configKeyVariants(t)
	key := base.ConfigKey()
	for _, fv := range variants {
		if identityFields[fv.field] {
			continue
		}
		if fv.spec.ConfigKey() == key {
			t.Errorf("setting %s=%v did not change ConfigKey:\nbase: %s", fv.field, fv.value, key)
		}
	}
}
