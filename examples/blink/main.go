// Blink runs the paper's hello-world calibration workload for 48 seconds
// and prints the full "where have all the joules gone" breakdown of
// Table 3, plus the activity timeline of Figure 11. The run is declared as
// a scenario spec and built through the app registry — the same path
// `quanto-trace sweep` uses to run whole matrices of these.
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"slices"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	secs := flag.Int("secs", 48, "run length in seconds")
	flag.Parse()

	in, err := scenario.Build(scenario.Spec{
		App:        "blink",
		Seed:       *seed,
		DurationUS: int64(*secs) * int64(units.Second),
	})
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	in.Run()

	blink := in.App.(*apps.Blink)
	tg := blink.Toggles()
	fmt.Printf("toggles: red=%d green=%d blue=%d\n\n", tg[0], tg[1], tg[2])

	net, err := in.Network()
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}
	n := blink.Node
	a := net.Nodes[n.ID]

	rows := a.ActivityRows([]core.ResourceID{power.ResCPU, power.ResLED0, power.ResLED1, power.ResLED2}, 0, a.Span())
	fmt.Println(analysis.RenderGantt(rows, 0, a.Span(), 96))

	volts := float64(n.Volts)
	fmt.Println("\nregressed draws:")
	for _, p := range a.Reg.Predictors {
		fmt.Printf("  %-12s state %-2d  %6.3f mA\n", in.World.Dict.ResourceName(p.Res), p.State, a.Reg.CurrentMA(p, volts))
	}
	fmt.Printf("  %-12s           %6.3f mA\n", "const", a.Reg.ConstCurrentMA(volts))

	byRes, constUJ := a.EnergyByResource()
	fmt.Println("\nenergy by hardware component:")
	var total float64
	for _, res := range slices.Sorted(maps.Keys(byRes)) {
		uj := byRes[res]
		fmt.Printf("  %-12s %8.2f mJ\n", in.World.Dict.ResourceName(res), uj/1000)
		total += uj
	}
	fmt.Printf("  %-12s %8.2f mJ\n", "const", constUJ/1000)
	fmt.Printf("  %-12s %8.2f mJ (measured: %.2f mJ)\n", "total",
		(total+constUJ)/1000, a.TotalEnergyUJ()/1000)
	fmt.Printf("\nreconstruction error vs meter: %.5f%%\n", a.ReconstructionError()*100)
}
