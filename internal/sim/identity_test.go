// Differential tests and benchmarks of the timer wheel against the
// reference heap queue on whole scenarios. They live in sim's external test
// package because only sim's tests can switch New to the heap (UseHeap in
// export_test.go); the scenario, app and mote packages this file imports
// are rebuilt against that test variant of sim.

package sim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	_ "repro/internal/apps" // registers the paper's workloads
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/units"
)

// encodedTraces runs the spec and returns every node's log in wire form,
// concatenated in node-id order with a per-node header. Any difference in
// event dispatch — order, timing, RNG consumption — shows up as a byte
// difference here.
func encodedTraces(t *testing.T, spec scenario.Spec) ([]byte, map[string]float64) {
	t.Helper()
	in, err := scenario.Build(spec)
	if err != nil {
		t.Fatalf("build %s: %v", spec.App, err)
	}
	in.Run()
	logs := in.World.NodeLogs()
	ids := make([]core.NodeID, 0, len(logs))
	for id := range logs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var buf bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&buf, "node %d: %d entries\n", id, len(logs[id]))
		buf.Write(trace.Marshal(logs[id]))
	}
	var metrics map[string]float64
	if in.Metrics != nil {
		metrics = in.Metrics()
	}
	return buf.Bytes(), metrics
}

// heapTraces is encodedTraces with every simulator on the reference heap
// queue.
func heapTraces(t *testing.T, spec scenario.Spec) ([]byte, map[string]float64) {
	t.Helper()
	defer sim.UseHeap()()
	return encodedTraces(t, spec)
}

// TestWheelHeapTraceIdentity is the differential property test for the
// timer-wheel scheduler: for every registered app, across seeds,
// placements, multi-origin load, battery deaths, traffic shapes, routing,
// mobility and recorded replay, a run on the wheel queue must produce
// byte-identical node traces (and identical metrics) to the same run on the
// reference binary-heap queue.
func TestWheelHeapTraceIdentity(t *testing.T) {
	variants := identityVariants(t)
	// Every registered app must have a variant: a new app cannot ship
	// without joining the differential suite.
	covered := make(map[string]bool)
	for _, v := range variants {
		covered[v.App] = true
	}
	for _, app := range scenario.Apps() {
		if !covered[app] {
			t.Errorf("registered app %q has no wheel-vs-heap variant in this test", app)
		}
	}

	for _, v := range variants {
		for _, seed := range pinSeeds {
			v := v
			v.Seed = seed
			t.Run(variantName(v), func(t *testing.T) {
				wb, wm := encodedTraces(t, v)
				hb, hm := heapTraces(t, v)
				if !bytes.Equal(wb, hb) {
					t.Fatalf("wheel and heap traces differ (%d vs %d bytes)", len(wb), len(hb))
				}
				if len(wm) != len(hm) {
					t.Fatalf("metric sets differ: %v vs %v", wm, hm)
				}
				for k, wv := range wm {
					if hv, ok := hm[k]; !ok || hv != wv {
						t.Errorf("metric %q: wheel %v heap %v", k, wv, hm[k])
					}
				}
			})
		}
	}
}

// pinSeeds are the seeds every identity variant runs at, in the wheel-vs-heap
// test and in the output pins alike.
var pinSeeds = []uint64{1, 7}

// identityVariants returns the differential suite's specs, seed unset: one
// or more per registered app, across placements, multi-origin load, battery
// deaths, traffic shapes, routing, mobility and a recorded replay (whose
// trace file lives in t's temporary directory).
func identityVariants(t *testing.T) []scenario.Spec {
	t.Helper()
	base := func(app string, dur units.Ticks) scenario.Spec {
		return scenario.Spec{App: app, DurationUS: int64(dur)}
	}
	variants := []scenario.Spec{
		base("blink", 2*units.Second),
		base("bounce", 2*units.Second),
		func() scenario.Spec {
			s := base("bounce", 2*units.Second)
			s.Placement = scenario.PlacementLine
			return s
		}(),
		base("lpl", 2*units.Second),
		base("relay", 2*units.Second),
		func() scenario.Spec {
			s := base("relay", units.Second)
			s.Nodes = 12
			s.Placement = scenario.PlacementRGG
			return s
		}(),
		base("sensesend", 2*units.Second),
		func() scenario.Spec {
			s := base("sensesend", 2*units.Second)
			s.Placement = scenario.PlacementGrid
			return s
		}(),
		base("timerbug", 2*units.Second),
		base("dma", units.Second),
		func() scenario.Spec {
			s := base("dma", units.Second)
			s.UseDMA = true
			return s
		}(),
		func() scenario.Spec {
			s := base("dma", units.Second)
			s.Placement = scenario.PlacementLine
			return s
		}(),
		// A line of relays with several phase-staggered origins.
		func() scenario.Spec {
			s := base("relay", 2*units.Second)
			s.Nodes = 24
			s.Origins = 8
			s.PeriodUS = int64(200 * units.Millisecond)
			s.Placement = scenario.PlacementLine
			return s
		}(),
		// Several origins over irregular random-geometric neighborhoods.
		func() scenario.Spec {
			s := base("relay", units.Second)
			s.Nodes = 16
			s.Origins = 4
			s.Placement = scenario.PlacementRGG
			return s
		}(),
		// Mid-run battery deaths: a death unregisters the node from the
		// medium and forces its radio off while traffic is in flight.
		func() scenario.Spec {
			s := base("relay", 4*units.Second)
			s.Nodes = 12
			s.Origins = 4
			s.PeriodUS = int64(250 * units.Millisecond)
			s.Placement = scenario.PlacementLine
			s.BatteryUAH = 0.9
			return s
		}(),
		// Halt-world deaths: the run stops at the first depletion event.
		func() scenario.Spec {
			s := base("relay", 4*units.Second)
			s.Nodes = 8
			s.Placement = scenario.PlacementLine
			s.BatteryUAH = 0.9
			s.DeathPolicy = scenario.DeathPolicyHaltWorld
			return s
		}(),
		// Shaped load: a ramp schedule drives several origins at once.
		func() scenario.Spec {
			s := base("relay", 2*units.Second)
			s.Nodes = 16
			s.Origins = 4
			s.Placement = scenario.PlacementLine
			s.Traffic = &traffic.Spec{
				Shape:     traffic.ShapeRamp,
				StartRPS:  2,
				StepRPS:   3,
				TargetRPS: 11,
				SlotUS:    int64(500 * units.Millisecond),
			}
			return s
		}(),
		// Heavy-tailed ON/OFF sources drawing from per-sender RNG streams.
		func() scenario.Spec {
			s := base("relay", 3*units.Second)
			s.Nodes = 12
			s.Origins = 4
			s.Placement = scenario.PlacementLine
			s.Traffic = &traffic.Spec{
				Shape:    traffic.ShapeOnOff,
				RPS:      20,
				OnMinUS:  int64(300 * units.Millisecond),
				OffMinUS: int64(200 * units.Millisecond),
			}
			return s
		}(),
		// Routed forwarding plane: beacons, parent selection, and per-packet
		// routing decisions.
		func() scenario.Spec {
			s := base("relay", 3*units.Second)
			s.Nodes = 12
			s.Origins = 4
			s.PeriodUS = int64(250 * units.Millisecond)
			s.Placement = scenario.PlacementLine
			s.Routing = scenario.RoutingCTP
			return s
		}(),
		// Routed plus mid-run battery deaths: a death fans NeighborDied
		// events out to every survivor at the topology priority.
		func() scenario.Spec {
			s := base("relay", 4*units.Second)
			s.Nodes = 10
			s.Origins = 3
			s.PeriodUS = int64(250 * units.Millisecond)
			s.Placement = scenario.PlacementLine
			s.Routing = scenario.RoutingCTP
			s.BatteryUAH = 0.9
			return s
		}(),
		// Routed plus mobility: positions change every MobilityStep, the
		// medium rebuilds its neighbor index once per epoch, and link
		// qualities (hence parent choices) shift mid-run. The speed is
		// exaggerated so a 3 s run actually crosses neighborhoods.
		func() scenario.Spec {
			s := base("relay", 3*units.Second)
			s.Nodes = 12
			s.Origins = 4
			s.PeriodUS = int64(250 * units.Millisecond)
			s.Placement = scenario.PlacementGrid
			s.Routing = scenario.RoutingCTP
			s.Mobility = scenario.MobilityWaypoint
			s.SpeedMPS = 12
			return s
		}(),
	}
	// A replayed trace must match too: record a shaped run once, then drive
	// both queues from the recorded file.
	return append(variants, recordedReplayVariant(t))
}

// variantName names a differential variant by app, seed and placement, then
// by each workload knob the variant sets.
func variantName(s scenario.Spec) string {
	name := fmt.Sprintf("%s/seed=%d/placement=%s", s.App, s.Seed, s.Placement)
	if s.Origins > 0 {
		name += fmt.Sprintf("/origins=%d", s.Origins)
	}
	if s.BatteryUAH > 0 {
		name += fmt.Sprintf("/battery_uah=%g", s.BatteryUAH)
	}
	if s.DeathPolicy != "" {
		name += "/death_policy=" + s.DeathPolicy
	}
	if s.Traffic != nil {
		name += "/shape=" + s.Traffic.Shape
	}
	if s.Routing != "" {
		name += "/routing=" + s.Routing
	}
	if s.Mobility != "" {
		name += "/mobility=" + s.Mobility
	}
	if s.UseDMA {
		name += "/use_dma"
	}
	return name
}

// recordedReplayVariant records a bursty shaped relay run once and returns a
// spec that replays the captured schedule from disk, so the differential
// suite covers replay — the shape that consumes no randomness at all.
func recordedReplayVariant(t *testing.T) scenario.Spec {
	t.Helper()
	rec := scenario.Spec{
		App:        "relay",
		Seed:       3,
		DurationUS: int64(2 * units.Second),
		Nodes:      12,
		Origins:    3,
		Placement:  scenario.PlacementLine,
		Traffic: &traffic.Spec{
			Shape:    traffic.ShapeBurst,
			RPS:      2,
			BurstRPS: 40,
			BurstUS:  int64(100 * units.Millisecond),
			PeriodUS: int64(500 * units.Millisecond),
		},
	}
	in, err := scenario.Build(rec)
	if err != nil {
		t.Fatalf("build recording run: %v", err)
	}
	in.Run()
	path := filepath.Join(t.TempDir(), "relay-burst.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create trace file: %v", err)
	}
	if err := in.Traffic.WriteJSONL(f); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close trace: %v", err)
	}
	replay := rec
	replay.Traffic = &traffic.Spec{Shape: traffic.ShapeReplay, File: path}
	return replay
}

// relay10kSpec is the scaling workload: 10 000 relay nodes placed as a
// random geometric graph, origin flooding every 5 ms for 30 simulated
// seconds, each node on a finite battery. The battery matters: every CPU
// active/idle edge re-projects the depletion check, a cancel+reschedule
// pair against a ~10k-entry standing queue, which is exactly the
// steady-state churn a lifetime sweep puts on the scheduler.
func relay10kSpec() scenario.Spec {
	return scenario.Spec{
		App:        "relay",
		Seed:       1,
		Nodes:      10000,
		Placement:  scenario.PlacementRGG,
		PeriodUS:   int64(5 * units.Millisecond),
		DurationUS: int64(30 * units.Second),
		BatteryUAH: 50000,
	}
}

// Benchmark10kNodeRelay measures the simulator core at scale: the 10k-node
// relay under the timer wheel and under the reference heap queue. World
// construction runs with the timer stopped, so ns/op and allocs/op are the
// cost of the event loop itself — dispatch, scheduling, frame delivery —
// not of setup.
//
// BENCH_core.json records both queues; the CI bench-compare step fails on
// an allocs/op regression or a changed events/run.
func Benchmark10kNodeRelay(b *testing.B) {
	for _, queue := range []string{"wheel", "heap"} {
		b.Run("queue="+queue, func(b *testing.B) {
			if queue == "heap" {
				defer sim.UseHeap()()
			}
			spec := relay10kSpec()
			b.ReportAllocs()
			var events int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in, err := scenario.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				// Collect construction garbage outside the timed region so
				// the first timed run does not pay the build's GC debt.
				runtime.GC()
				b.StartTimer()
				events = in.World.Run(in.Spec.Duration())
				in.World.StampEnd()
			}
			b.ReportMetric(float64(events), "events/run")
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if nsPerOp > 0 {
				b.ReportMetric(float64(events)*1e9/nsPerOp, "events/sec")
			}
		})
	}
}

// Benchmark10kNodeRelayFixedCost measures what Benchmark10kNodeRelay leaves
// out, on the same spec: building the 10k-node world and analyzing its
// logs. The timer runs around Build and Finish and stops around Run, so
// ns/op, B/op and allocs/op are the per-node fixed cost — node assembly and
// every node's log through one reset analyzer — not the event loop. The
// spatial index is not in it: its cells and rows are built from the first
// transmission on, inside Run.
//
// BENCH_core.json records it beside the event-loop rows; the CI
// bench-compare step fails on an allocs/op regression or a changed
// events/run.
func Benchmark10kNodeRelayFixedCost(b *testing.B) {
	spec := relay10kSpec()
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		in, err := scenario.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		events = in.World.Run(in.Spec.Duration())
		in.World.StampEnd()
		b.StartTimer()
		if _, err := in.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events), "events/run")
}
