package scenario_test

import (
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/units"
)

// allocsPerFrame bounds the allocations each extra medium frame may cost
// the apps whose traffic grows with the run. What is left per frame is each
// message's own objects: bounce's Packet and its Frame; relay's, with the
// forward task and retry closures; sensesend's, with the sensor and arbiter
// chain that runs once per sample.
var allocsPerFrame = map[string]float64{
	"bounce":    2,
	"relay":     4,
	"sensesend": 17,
}

// slack bounds the objects the runtime allocates on its own inside one
// run's count. Under the race detector a run's count varies by a few
// objects (the fewest of 16 runs by up to 3); an allocation per event adds
// one per blink toggle or LPL wake-up, about 90 per run or more between
// the two lengths.
const slack = 8

// TestSteadyStateAllocations: a run allocates per node, not per event. It
// runs every registered app's default spec (lpl on channel 17, where it
// detects energy) through one Runner worker at 16 seeds, at 30 s and at
// 120 s. An app listed in allocsPerFrame may allocate at most its ceiling
// per extra medium frame; every other app must allocate the same per run at
// both lengths, so its wake-ups, timers and frames allocate nothing. The
// 120 s runs go first once, so the worker's log buffers are grown before
// either length is counted. It reads process-wide allocation counters: no
// test in this package may run in parallel with it.
func TestSteadyStateAllocations(t *testing.T) {
	const seeds = 16
	wk := scenario.NewWorker()
	// run runs spec at every seed for d and returns the allocations and
	// medium frames of all those runs, and the fewest allocations one run
	// made.
	run := func(spec scenario.Spec, d units.Ticks) (allocs, fewest, frames uint64) {
		t.Helper()
		spec.DurationUS = int64(d)
		var before, after runtime.MemStats
		for seed := uint64(1); seed <= seeds; seed++ {
			spec.Seed = seed
			runtime.ReadMemStats(&before)
			r := wk.Run(spec)
			runtime.ReadMemStats(&after)
			if r.Error != "" {
				t.Fatalf("%s seed %d: %s", spec.App, seed, r.Error)
			}
			n := after.Mallocs - before.Mallocs
			allocs += n
			if seed == 1 || n < fewest {
				fewest = n
			}
			frames += wk.World().Medium.Frames()
		}
		return allocs, fewest, frames
	}
	short, long := 30*units.Second, 120*units.Second
	for _, app := range scenario.Apps() {
		spec := scenario.Spec{App: app}
		if app == "lpl" {
			spec.Channel = 17
		}
		run(spec, long)
		a30, fewest30, f30 := run(spec, short)
		a120, fewest120, f120 := run(spec, long)
		perRun30, perRun120 := float64(a30)/seeds, float64(a120)/seeds
		ceiling, frameDriven := allocsPerFrame[app]
		if !frameDriven {
			t.Logf("%s: %.2f allocs/run at 30 s, %.2f at 120 s; at fewest %d and %d",
				app, perRun30, perRun120, fewest30, fewest120)
			// The fewest a run made at each length leaves out most of
			// the runtime's own allocations; an allocation per event
			// raises every 120 s run above every 30 s one.
			if fewest120 > fewest30+slack {
				t.Errorf("%s allocates at least %d objects per run at 120 s against %d at 30 s, want the same",
					app, fewest120, fewest30)
			}
			continue
		}
		if f120 <= f30 {
			t.Fatalf("%s: %d medium frames at 120 s, not more than the %d at 30 s", app, f120, f30)
		}
		perFrame := (float64(a120) - float64(a30)) / float64(f120-f30)
		t.Logf("%s: %.2f allocs/run at 30 s, %.2f at 120 s; %.2f per extra medium frame",
			app, perRun30, perRun120, perFrame)
		if float64(a120)-float64(a30) > ceiling*float64(f120-f30)+slack*seeds {
			t.Errorf("%s allocates %.2f objects per extra medium frame, want at most %v", app, perFrame, ceiling)
		}
	}
}
