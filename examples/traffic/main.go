// traffic demonstrates the synthetic traffic engine: shaped offered load
// (constant, ramp, burst, diurnal, heavy-tailed ON/OFF) driving the relay
// line, and record-and-replay of a realized send schedule.
//
// The default run records a bursty relay run's send schedule to a JSONL
// trace, replays that trace through a fresh world, and shows the two runs
// are indistinguishable — same sends, same deliveries, same energy — because
// shapes draw from private RNG streams the rest of the simulator never sees.
//
// With -matrix the example sweeps load shape × generation duty: every shape
// at several intensities, replicated across seeds, with delivery rate, drop
// rate, and energy per delivered packet per cell — how the accounting
// responds to the character of offered load, not just its average.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/units"
)

func main() {
	seed := flag.Uint64("seed", 7, "simulation seed")
	secs := flag.Int("secs", 5, "run length in seconds")
	out := flag.String("out", "", "write the recorded trace here (default: a temp file)")
	matrix := flag.Bool("matrix", false, "run the load-shape × duty sweep instead of record/replay")
	flag.Parse()

	if *matrix {
		runMatrix(*seed)
		return
	}
	recordReplay(*seed, *secs, *out)
}

// recordReplay runs the shaped recording pass, replays its trace, and checks
// the two runs agree on everything the accounting can see.
func recordReplay(seed uint64, secs int, out string) {
	spec := scenario.Spec{
		App:        "relay",
		Seed:       seed,
		DurationUS: int64(secs) * int64(units.Second),
		Nodes:      12,
		Origins:    4,
		Traffic: &traffic.Spec{
			Shape:    traffic.ShapeBurst,
			RPS:      2,
			BurstRPS: 50,
			BurstUS:  int64(100 * units.Millisecond),
			PeriodUS: int64(500 * units.Millisecond),
		},
	}
	in, err := scenario.Build(spec)
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	in.Run()
	r := in.App.(*apps.Relay)
	gen, del := r.Stats()
	fmt.Printf("shaped run:  %d sends offered, %d delivered, %d dropped\n", gen, del, r.Dropped())

	if out == "" {
		dir, err := os.MkdirTemp("", "quanto-traffic")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		out = filepath.Join(dir, "trace.jsonl")
	}
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := in.Traffic.WriteJSONL(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded:    %d sends -> %s\n", len(in.Traffic.Events()), out)

	replay := spec
	replay.Traffic = &traffic.Spec{Shape: traffic.ShapeReplay, File: out}
	rin, err := scenario.Build(replay)
	if err != nil {
		log.Fatalf("build replay: %v", err)
	}
	rin.Run()
	rr := rin.App.(*apps.Relay)
	rgen, rdel := rr.Stats()
	fmt.Printf("replayed:    %d sends offered, %d delivered, %d dropped\n", rgen, rdel, rr.Dropped())
	if rgen != gen || rdel != del {
		log.Fatal("replay diverged from the shaped run — determinism contract broken")
	}
	fmt.Println("\nreplay reproduced the shaped run exactly: the schedule is the only")
	fmt.Println("randomness a shape injects, so a recorded schedule pins the whole run.")
}

// runMatrix sweeps the character of offered load against its duty: the same
// relay line under every shape, each at a mild and an aggressive setting.
// Sweep lists are ordinary JSON values, so the traffic object itself is the
// swept field.
func runMatrix(seed uint64) {
	shapes := []any{
		map[string]any{"shape": "constant", "rps": 5},
		map[string]any{"shape": "constant", "rps": 40},
		map[string]any{"shape": "ramp", "start_rps": 2, "step_rps": 8, "target_rps": 42, "slot_us": 1000000},
		map[string]any{"shape": "burst", "rps": 2, "burst_rps": 80, "burst_us": 100000, "period_us": 1000000},
		map[string]any{"shape": "diurnal", "rps": 20, "period_us": 4000000},
		map[string]any{"shape": "onoff", "rps": 40, "on_min_us": 300000, "off_min_us": 300000},
	}
	m := scenario.Matrix{
		Base: scenario.Spec{
			App:        "relay",
			Seed:       seed,
			Nodes:      12,
			Origins:    4,
			DurationUS: int64(5 * units.Second),
		},
		Sweep: map[string][]any{"traffic": shapes},
		Seeds: 4,
	}
	specs, err := m.Expand()
	if err != nil {
		log.Fatalf("expand: %v", err)
	}
	fmt.Printf("load-shape × duty sweep: %d runs (%d shapes × 4 seeds)\n\n", len(specs), len(shapes))
	results := (&scenario.Runner{}).Run(specs)
	for _, r := range results {
		if r.Error != "" {
			log.Fatalf("run %d: %s", r.Run, r.Error)
		}
	}

	ag := scenario.Aggregate(results)
	fmt.Printf("%-26s %10s %10s %10s %14s\n",
		"shape", "offered", "delivered", "dropped", "mJ/delivered")
	for _, g := range ag.Groups() {
		var spec *scenario.Spec
		for _, r := range results {
			if r.Spec.ConfigKey() == g.Key {
				spec = &r.Spec
				break
			}
		}
		gen := g.Stat("metric:generated").Mean()
		del := g.Stat("metric:delivered").Mean()
		drop := g.Stat("metric:dropped").Mean()
		perDelivered := "-" // a fully collapsed line delivers nothing
		if del > 0 {
			perDelivered = fmt.Sprintf("%.3f", g.Stat("total_uj").Mean()/1000/del)
		}
		fmt.Printf("%-26s %10.1f %10.1f %10.1f %14s\n",
			describeShape(spec.Traffic), gen, del, drop, perDelivered)
	}
	fmt.Println("\n(offered = sends the shapes scheduled; dropped = packets lost to a busy")
	fmt.Println(" radio — at an origin whose one-deep retry slot was already held, or at a")
	fmt.Println(" forwarder; mJ/delivered is total network energy over deliveries —")
	fmt.Println(" bursty and heavy-tailed load pays more per packet than the same average")
	fmt.Println(" rate spread evenly)")
}

// describeShape renders a traffic spec as a compact table label.
func describeShape(t *traffic.Spec) string {
	switch t.Shape {
	case traffic.ShapeConstant:
		return fmt.Sprintf("constant %.0f rps", t.RPS)
	case traffic.ShapeRamp:
		return fmt.Sprintf("ramp %.0f->%.0f rps", t.StartRPS, t.TargetRPS)
	case traffic.ShapeBurst:
		return fmt.Sprintf("burst %.0f/%.0f rps", t.RPS, t.BurstRPS)
	case traffic.ShapeDiurnal:
		return fmt.Sprintf("diurnal %.0f rps peak", t.RPS)
	case traffic.ShapeOnOff:
		return fmt.Sprintf("onoff %.0f rps on-rate", t.RPS)
	default:
		return t.Shape
	}
}
