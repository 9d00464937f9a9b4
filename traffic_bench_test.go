// Benchmarks for the synthetic traffic engine: how fast shaped schedules
// generate, what a shaped run costs over the plain periodic path, and the
// record-and-replay round trip. The CI bench step runs these under the
// '^BenchmarkTraffic' regex (disjoint from the core/sweep/medium/lifetime
// suites) and compares against the committed BENCH_traffic.json baseline.
package repro

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/units"
)

// benchShapes is the generator matrix: every non-replay shape at a load that
// produces a few thousand events over the horizon.
func benchShapes() []traffic.Spec {
	return []traffic.Spec{
		{Shape: traffic.ShapeConstant, RPS: 50},
		{Shape: traffic.ShapeRamp, StartRPS: 10, StepRPS: 10, TargetRPS: 80, SlotUS: int64(2 * units.Second)},
		{Shape: traffic.ShapeBurst, RPS: 5, BurstRPS: 200, BurstUS: int64(50 * units.Millisecond), PeriodUS: int64(500 * units.Millisecond)},
		{Shape: traffic.ShapeDiurnal, RPS: 50, PeriodUS: int64(4 * units.Second)},
		{Shape: traffic.ShapeOnOff, RPS: 100, OnMinUS: int64(100 * units.Millisecond), OffMinUS: int64(100 * units.Millisecond)},
	}
}

// BenchmarkTrafficGenerate drains 20 simulated seconds of schedule from 8
// senders per shape: the pure engine cost, no simulator attached. events/op
// makes the per-event cost comparable across shapes with different yields.
func BenchmarkTrafficGenerate(b *testing.B) {
	ids := make([]core.NodeID, 8)
	for i := range ids {
		ids[i] = core.NodeID(i + 1)
	}
	horizon := units.Ticks(20 * units.Second)
	for _, sp := range benchShapes() {
		sp := sp
		b.Run(sp.Shape, func(b *testing.B) {
			events := 0
			for i := 0; i < b.N; i++ {
				srcs, err := traffic.Sources(&sp, uint64(i+1), ids)
				if err != nil {
					b.Fatal(err)
				}
				for _, src := range srcs {
					for at, ok := src.Next(); ok && at < horizon; at, ok = src.Next() {
						events++
					}
				}
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkTrafficShapedRelay runs a 12-node, 4-origin relay line for 5
// simulated seconds under each shape: the end-to-end cost of shaped load
// riding the full simulator, the number the periodic baseline below anchors.
func BenchmarkTrafficShapedRelay(b *testing.B) {
	for _, sp := range benchShapes() {
		sp := sp
		b.Run(sp.Shape, func(b *testing.B) {
			spec := benchTrafficRelaySpec()
			spec.Traffic = &sp
			runTrafficBench(b, spec)
		})
	}
	b.Run("periodic-baseline", func(b *testing.B) {
		runTrafficBench(b, benchTrafficRelaySpec())
	})
}

// runTrafficBench builds and runs spec b.N times, the same steps as
// Instance.Run, and reports the run's event count as events/run so the
// bench gate flags a changed workload.
func runTrafficBench(b *testing.B, spec scenario.Spec) {
	var events int
	for i := 0; i < b.N; i++ {
		in, err := scenario.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		events = in.World.Run(in.Spec.Duration())
		in.World.StampEnd()
	}
	b.ReportMetric(float64(events), "events/run")
}

func benchTrafficRelaySpec() scenario.Spec {
	return scenario.Spec{
		App:        "relay",
		Seed:       1,
		DurationUS: int64(5 * units.Second),
		Nodes:      12,
		Origins:    4,
		PeriodUS:   int64(100 * units.Millisecond),
	}
}

// BenchmarkTrafficRecordReplay measures the round trip: a recorded bursty
// run serialized to JSONL, parsed back, and replayed through a fresh world.
func BenchmarkTrafficRecordReplay(b *testing.B) {
	spec := benchTrafficRelaySpec()
	spec.Traffic = &traffic.Spec{
		Shape:    traffic.ShapeBurst,
		RPS:      5,
		BurstRPS: 100,
		BurstUS:  int64(100 * units.Millisecond),
		PeriodUS: int64(500 * units.Millisecond),
	}
	in, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	in.Run()
	var buf bytes.Buffer
	if err := in.Traffic.WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	events := len(in.Traffic.Events())
	b.Run(fmt.Sprintf("parse/events=%d", events), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := traffic.ParseTrace(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay-run", func(b *testing.B) {
		path := b.TempDir() + "/trace.jsonl"
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			b.Fatal(err)
		}
		replay := benchTrafficRelaySpec()
		replay.Traffic = &traffic.Spec{Shape: traffic.ShapeReplay, File: path}
		b.ResetTimer()
		runTrafficBench(b, replay)
	})
}
