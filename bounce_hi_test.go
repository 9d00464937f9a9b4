package repro

import (
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// TestBounceHighRateTrafficPanics drives shaped bounce runs at rising
// injection rates, up to far more than the radio can carry. RunSpec turns a
// panic into the Result's error, so each run must end without one.
func TestBounceHighRateTrafficPanics(t *testing.T) {
	for _, rps := range []float64{5, 20, 50, 200} {
		var sp scenario.Spec
		if err := json.Unmarshal([]byte(`{"app":"bounce","seed":1,"duration_us":30000000,"traffic":{"shape":"constant","rps":1}}`), &sp); err != nil {
			t.Fatal(err)
		}
		sp.Traffic.RPS = rps
		res := scenario.RunSpec(sp)
		if res.Error != "" {
			t.Errorf("rps=%v: %s", rps, res.Error)
			continue
		}
		t.Logf("rps=%v ok metrics=%v", rps, res.Metrics)
	}
}
