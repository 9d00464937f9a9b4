package scenario_test

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	_ "repro/internal/apps" // registers the paper's workloads
	"repro/internal/mote"
	"repro/internal/scenario"
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
	nodes := slices.SortedFunc(slices.Values(in.World.Nodes), func(a, b *mote.Node) int { return cmp.Compare(a.ID, b.ID) })
	var buf bytes.Buffer
	for _, n := range nodes {
		fmt.Fprintf(&buf, "node %d: %d entries\n", n.ID, len(n.Log.Entries))
		buf.Write(trace.Marshal(n.Log.Entries))
	}
	var metrics map[string]float64
	if in.Metrics != nil {
		metrics = in.Metrics()
	}
	return buf.Bytes(), metrics
}

// TestTrafficReplayRoundTrip is the record-and-replay contract: run a shaped
// spec, write the schedule it recorded to disk, then run the same spec again
// with the replay shape driving it from that file. The replay run must
// produce byte-identical node traces and identical metrics — and the replay's
// own recording must reproduce the trace file byte for byte. This holds
// because shapes draw from private RNG streams: the world's randomness never
// notices whether sends came from a generator or a file.
func TestTrafficReplayRoundTrip(t *testing.T) {
	cases := []scenario.Spec{
		{
			App:        "relay",
			Seed:       11,
			DurationUS: int64(2 * units.Second),
			Nodes:      10,
			Origins:    3,
			Traffic: &traffic.Spec{
				Shape:     traffic.ShapeRamp,
				StartRPS:  4,
				StepRPS:   4,
				TargetRPS: 16,
				SlotUS:    int64(500 * units.Millisecond),
			},
		},
		{
			App:        "bounce",
			Seed:       5,
			DurationUS: int64(2 * units.Second),
			Traffic:    &traffic.Spec{Shape: traffic.ShapeConstant, RPS: 6},
		},
		{
			App:        "sensesend",
			Seed:       9,
			DurationUS: int64(3 * units.Second),
			Traffic: &traffic.Spec{
				Shape:    traffic.ShapeDiurnal,
				RPS:      8,
				PeriodUS: int64(2 * units.Second),
			},
		},
	}
	for _, spec := range cases {
		spec := spec
		t.Run(fmt.Sprintf("%s/%s", spec.App, spec.Traffic.Shape), func(t *testing.T) {
			in, err := scenario.Build(spec)
			if err != nil {
				t.Fatalf("build recording run: %v", err)
			}
			in.Run()
			var file bytes.Buffer
			if err := in.Traffic.WriteJSONL(&file); err != nil {
				t.Fatalf("write trace: %v", err)
			}
			shapedTraces, shapedMetrics := encodedTraces(t, spec)

			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			replay := spec
			replay.Traffic = &traffic.Spec{Shape: traffic.ShapeReplay, File: path}
			rin, err := scenario.Build(replay)
			if err != nil {
				t.Fatalf("build replay run: %v", err)
			}
			rin.Run()
			var refile bytes.Buffer
			if err := rin.Traffic.WriteJSONL(&refile); err != nil {
				t.Fatalf("re-record trace: %v", err)
			}
			if !bytes.Equal(refile.Bytes(), file.Bytes()) {
				t.Fatalf("re-recorded trace differs from original (%d vs %d bytes)",
					refile.Len(), file.Len())
			}

			replayTraces, replayMetrics := encodedTraces(t, replay)
			if !bytes.Equal(replayTraces, shapedTraces) {
				t.Fatalf("replay traces differ from shaped run (%d vs %d bytes)",
					len(replayTraces), len(shapedTraces))
			}
			if len(replayMetrics) != len(shapedMetrics) {
				t.Fatalf("metric sets differ: shaped %v replay %v", shapedMetrics, replayMetrics)
			}
			for k, sv := range shapedMetrics {
				if rv, ok := replayMetrics[k]; !ok || rv != sv {
					t.Errorf("metric %q: shaped %v replay %v", k, sv, replayMetrics[k])
				}
			}
		})
	}
}

// TestShapedRunsRecordTraffic pins where Instance.Traffic comes from: each
// send-driven app records the schedule a traffic shape realizes, and keeps no
// recorder for its default schedule.
func TestShapedRunsRecordTraffic(t *testing.T) {
	for _, app := range []string{"relay", "bounce", "sensesend"} {
		spec := scenario.Spec{App: app, Seed: 1, DurationUS: int64(units.Second)}
		in, err := scenario.Build(spec)
		if err != nil {
			t.Fatalf("%s: build default schedule: %v", app, err)
		}
		if in.Traffic != nil {
			t.Errorf("%s: default schedule has a recorder", app)
		}
		spec.Traffic = &traffic.Spec{Shape: traffic.ShapeConstant, RPS: 4}
		in, err = scenario.Build(spec)
		if err != nil {
			t.Fatalf("%s: build shaped run: %v", app, err)
		}
		if in.Traffic == nil {
			t.Errorf("%s: shaped run has no recorder", app)
			continue
		}
		in.Run()
		if len(in.Traffic.Events()) == 0 {
			t.Errorf("%s: shaped run recorded no sends", app)
		}
	}
}

// TestTrafficRejectedByNonSendApps pins the builder guard: a traffic shape on
// an app with no send-driven workload fails the build instead of silently
// doing nothing.
func TestTrafficRejectedByNonSendApps(t *testing.T) {
	for _, app := range []string{"blink", "lpl", "timerbug", "dma"} {
		spec := scenario.Spec{
			App:        app,
			Seed:       1,
			DurationUS: int64(units.Second),
			Traffic:    &traffic.Spec{Shape: traffic.ShapeConstant, RPS: 1},
		}
		if _, err := scenario.Build(spec); err == nil {
			t.Errorf("%s: build accepted a traffic shape it does not honor", app)
		}
	}
}
