// sense-and-send runs the Figure 7 application: a sensing node samples
// humidity and temperature under dedicated activities and ships the
// readings to a base station, which ends up charging its reception work to
// the sensing node's packet activity. Declared as a scenario spec and
// analyzed through the streaming network analyzer.
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"slices"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

func main() {
	seed := flag.Uint64("seed", 21, "simulation seed")
	secs := flag.Int("secs", 30, "run length in seconds")
	flag.Parse()

	in, err := scenario.Build(scenario.Spec{
		App:        "sensesend",
		Seed:       *seed,
		DurationUS: int64(*secs) * int64(units.Second),
	})
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	in.Run()
	s := in.App.(*apps.SenseSend)

	sent, received := s.Stats()
	fmt.Printf("reports: sent=%d received=%d; sensor conversions=%d\n\n",
		sent, received, s.Sensor.Sensor.Reads())

	net, err := in.Network()
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	// Sensing node: energy split across the three application activities.
	a := net.Nodes[s.Sensor.ID]
	fmt.Println("sensing node, energy by activity:")
	byAct := a.EnergyByActivity()
	for _, l := range slices.Sorted(maps.Keys(byAct)) {
		uj := byAct[l]
		name := "Const."
		if l != analysis.ConstLabel {
			name = in.World.Dict.LabelName(l)
		}
		if uj < 1 {
			continue
		}
		fmt.Printf("  %-14s %8.2f mJ\n", name, uj/1000)
	}

	// Base station: how much CPU time went to the sensing node's packets?
	aB := net.Nodes[s.Base.ID]
	times := aB.TimeByActivity()
	fmt.Println("\nbase station, CPU time by activity:")
	cpu := times[power.ResCPU]
	for _, l := range slices.Sorted(maps.Keys(cpu)) {
		us := cpu[l]
		if us < 1000 {
			continue
		}
		fmt.Printf("  %-14s %8.2f ms\n", in.World.Dict.LabelName(l), float64(us)/1000)
	}
}
