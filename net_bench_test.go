// Benchmarks for the routing layer: what the collection tree costs on top
// of an unrouted relay, and how the routed stack scales with node count and
// with mobility churning the neighbor index. The CI bench step runs these
// under the '^BenchmarkNet(Routed|Mobile)' regex (disjoint from the other
// suites) and compares against the committed BENCH_net.json baseline.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
	"repro/internal/units"
)

// benchNetSpec is one routed relay run: a spatial grid sized for multi-hop
// routes, a handful of origins, default beacon period.
func benchNetSpec(nodes int) scenario.Spec {
	return scenario.Spec{
		App:        "relay",
		Seed:       1,
		DurationUS: int64(5 * units.Second),
		Nodes:      nodes,
		Origins:    4,
		PeriodUS:   int64(250 * units.Millisecond),
		Placement:  scenario.PlacementGrid,
		Routing:    scenario.RoutingCTP,
	}
}

// BenchmarkNetRoutedRelay runs the routed grid at increasing node counts
// against the identical unrouted spec: the routed/unrouted gap is the whole
// price of the networking layer — beacons on the air, link estimation,
// parent selection, per-packet route lookups.
func BenchmarkNetRoutedRelay(b *testing.B) {
	for _, routed := range []bool{false, true} {
		mode := "unrouted"
		if routed {
			mode = "routed"
		}
		for _, nodes := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/nodes=%d", mode, nodes), func(b *testing.B) {
				spec := benchNetSpec(nodes)
				if !routed {
					spec.Routing = ""
				}
				b.ResetTimer()
				runNetBench(b, spec)
			})
		}
	}
}

// BenchmarkNetMobileRouted adds waypoint mobility to the routed grid: every
// MobilityStep relocates every node, the next transmission rebuilds the
// medium's neighbor index once for the epoch, and the shifting links keep
// the estimator and parent selection busy. The delta over the static routed
// run prices mobility.
func BenchmarkNetMobileRouted(b *testing.B) {
	for _, nodes := range []int{16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			spec := benchNetSpec(nodes)
			spec.Mobility = scenario.MobilityWaypoint
			spec.SpeedMPS = 8
			b.ResetTimer()
			runNetBench(b, spec)
		})
	}
}

// runNetBench builds, runs and analyzes spec b.N times, the same steps as
// scenario.RunSpec, and reports the run's event count as events/run so the
// bench gate flags a changed workload.
func runNetBench(b *testing.B, spec scenario.Spec) {
	var events int
	for i := 0; i < b.N; i++ {
		in, err := scenario.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		events = in.World.Run(in.Spec.Duration())
		in.World.StampEnd()
		if _, err := in.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events), "events/run")
}
