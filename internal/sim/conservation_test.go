package sim_test

import (
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/scenario"
)

// TestEnergyConservation checks the paper's accounting claim on every
// identity variant at each pin seed: attribution by activity accounts for
// all the energy the fitted model assigns. On every node, the energy charged
// to activities (the constant's "Const." row included) must equal the energy
// charged to resources plus the constant term, within 1e-12 of the latter.
// The two views charge the same fitted draws over the same state segments,
// so only float rounding separates them; a segment the activity timelines
// drop, or charge twice, shows as a gap of its whole energy.
func TestEnergyConservation(t *testing.T) {
	const tol = 1e-12
	worst, worstAt := 0.0, ""
	nodes := 0
	for _, v := range identityVariants(t) {
		for _, seed := range pinSeeds {
			v := v
			v.Seed = seed
			name := variantName(v)
			t.Run(name, func(t *testing.T) {
				in, err := scenario.Build(v)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				in.Run()
				net, err := in.Network()
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				for _, id := range slices.Sorted(maps.Keys(net.Nodes)) {
					a := net.Nodes[id]
					byAct := a.EnergyByActivity()
					var act float64
					for _, l := range slices.Sorted(maps.Keys(byAct)) {
						act += byAct[l]
					}
					byRes, constUJ := a.EnergyByResource()
					res := constUJ
					for _, r := range slices.Sorted(maps.Keys(byRes)) {
						res += byRes[r]
					}
					gap := math.Abs(act - res)
					if gap > tol*math.Abs(res) {
						t.Errorf("node %d: %.9f uJ by activity, %.9f uJ by resource plus constant (gap %.3g uJ)", id, act, res, gap)
					}
					if res != 0 && gap/math.Abs(res) > worst {
						worst, worstAt = gap/math.Abs(res), name
					}
					nodes++
				}
			})
		}
	}
	t.Logf("worst relative gap %.3g over %d nodes (%s)", worst, nodes, worstAt)
}
