// Bounce runs the paper's two-node cross-activity example: packets carry
// their originating activity in a hidden link-layer field, so work one node
// performs for another node's packet is charged to the originating
// activity. The run is a declarative scenario; the per-node analyses come
// from the streaming network analyzer in one pass over each node's log.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

func main() {
	seed := flag.Uint64("seed", 3, "simulation seed")
	secs := flag.Int("secs", 4, "run length in seconds")
	flag.Parse()

	in, err := scenario.Build(scenario.Spec{
		App:        "bounce",
		Seed:       *seed,
		DurationUS: int64(*secs) * int64(units.Second),
	})
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	in.Run()
	b := in.App.(*apps.Bounce)

	recv, sent := b.Stats()
	fmt.Printf("node 1: rx=%d tx=%d   node 4: rx=%d tx=%d\n\n", recv[0], sent[0], recv[1], sent[1])

	net, err := in.Network()
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	acts := b.Activities()
	for i, n := range b.Nodes {
		a := net.Nodes[n.ID]
		times := a.TimeByActivity()
		local, remote := acts[i], acts[1-i]
		fmt.Printf("node %d CPU time: %.2f ms for %s, %.2f ms for %s\n",
			n.ID,
			float64(times[power.ResCPU][local])/1000, in.World.Dict.LabelName(local),
			float64(times[power.ResCPU][remote])/1000, in.World.Dict.LabelName(remote))

		byAct := a.EnergyByActivity()
		fmt.Printf("node %d energy: %.2f mJ for %s, %.2f mJ for %s\n\n",
			n.ID,
			byAct[local]/1000, in.World.Dict.LabelName(local),
			byAct[remote]/1000, in.World.Dict.LabelName(remote))
	}
	fmt.Println("the second line of each pair is energy this node spent on the OTHER node's activity")
}
