// Quickstart: define a tiny custom workload, register it as a scenario app,
// run it through the same declarative path every built-in workload uses, and
// ask Quanto where the joules went. Registering an app is all it takes to
// make a workload sweepable — the registry is open to binaries outside
// internal/apps, exactly like this one.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"repro/internal/analysis"
	"repro/internal/mote"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

// registerWork installs a one-node workload under the name "work": a
// periodic timer that toggles LED0 and burns CPU cycles under a "Work"
// activity. A builder adds its nodes to the world it is handed, empty and
// seeded with spec.Seed: Build hands it a new one, and a sweep worker the
// world it resets for every run.
func registerWork() {
	scenario.Register("work", func(spec scenario.Spec, w *mote.World) (*scenario.Instance, error) {
		n := w.AddNode(1, spec.NodeOptions(1))
		k := n.K

		period := units.Ticks(spec.PeriodUS)
		if period <= 0 {
			period = 250 * units.Millisecond
		}
		toggles := 0
		work := k.DefineActivity("Work")
		k.Boot(func() {
			k.CPUAct.Set(work)
			t := k.NewTimer(func() {
				toggles++
				n.LEDs.Toggle(0) // LED0 runs on behalf of "Work"
				k.Spend(400)     // and so do these CPU cycles
			})
			t.StartPeriodic(period)
			k.CPUAct.SetIdle()
		})
		return &scenario.Instance{
			App: n,
			Metrics: func() map[string]float64 {
				return map[string]float64{"toggles": float64(toggles)}
			},
		}, nil
	})
}

func main() {
	registerWork()

	// Ten simulated seconds of the workload, end stamped, analyzed through
	// the streaming pipeline. Build/Run/Finish is what scenario.RunSpec
	// does for a whole sweep; holding the instance keeps the full analysis
	// reachable too.
	in, err := scenario.Build(scenario.Spec{
		App:        "work",
		Seed:       42,
		DurationUS: int64(10 * units.Second),
	})
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	in.Run()
	res, err := in.Finish()
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	fmt.Printf("log entries:        %d (12 bytes each)\n", res.Entries)
	fmt.Printf("LED toggles:        %.0f\n", res.Metrics["toggles"])
	fmt.Printf("energy measured:    %.2f mJ\n", res.TotalUJ/1000)
	fmt.Printf("average power:      %.2f mW\n", res.AvgPowerMW)

	fmt.Println("\nenergy by activity:")
	for _, name := range slices.Sorted(maps.Keys(res.ActivityUJ)) {
		fmt.Printf("  %-14s %8.2f mJ\n", name, res.ActivityUJ[name]/1000)
	}

	// The compact result is enough for sweeps; the same instance also
	// serves the full analysis (fitted draws, timelines).
	net, err := in.Network()
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}
	a := net.Nodes[1]
	led0 := analysis.Predictor{Res: power.ResLED0, State: power.StateOn}
	volts := float64(in.World.Nodes[0].Volts)
	fmt.Printf("\nLED0 draw (fit):    %.2f mA\n", a.Reg.CurrentMA(led0, volts))
	fmt.Printf("baseline (fit):     %.2f mA\n", a.Reg.ConstCurrentMA(volts))
}
