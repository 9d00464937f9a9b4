// Benchmarks for the simulator core at scale: a 10k-node random-geometric
// relay network measured under the timer-wheel event queue and under the
// legacy binary-heap baseline (`queue=heap`). World construction runs with
// the timer stopped, so ns/op and allocs/op are the cost of the event loop
// itself — dispatch, scheduling, frame delivery — not of setup.
//
// BENCH_core.json records both queues; the CI bench-compare step fails on
// an allocs/op regression or a changed events/run.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/units"
)

// relay10kSpec is the scaling workload: 10 000 relay nodes placed as a
// random geometric graph, origin flooding every 5 ms for 30 simulated
// seconds, each node on a finite battery. The battery matters: every CPU
// active/idle edge re-projects the depletion check, a cancel+reschedule
// pair against a ~10k-entry standing queue, which is exactly the
// steady-state churn a lifetime sweep puts on the scheduler.
func relay10kSpec(queue string) scenario.Spec {
	return scenario.Spec{
		App:        "relay",
		Seed:       1,
		Nodes:      10000,
		Placement:  scenario.PlacementRGG,
		PeriodUS:   int64(5 * units.Millisecond),
		DurationUS: int64(30 * units.Second),
		BatteryUAH: 50000,
		Queue:      queue,
	}
}

func Benchmark10kNodeRelay(b *testing.B) {
	for _, queue := range []string{"wheel", "heap"} {
		b.Run(fmt.Sprintf("queue=%s", queue), func(b *testing.B) {
			spec := relay10kSpec(queue)
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
