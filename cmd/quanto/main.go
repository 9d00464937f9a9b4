// Command quanto runs the paper's workloads on the simulated platform and
// reproduces its tables and figures.
//
// Usage:
//
//	quanto [-seed N] [-list] [experiment ...]
//
// With no arguments every experiment runs in the order of
// experiments.Exhibits: the paper's tables and figures in paper order, the
// network-wide footprint, then one ablation per design choice. -list prints
// the experiment names in that order.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/experiments"
)

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed (all randomness is derived from it)")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Exhibits {
			fmt.Println(e.ID)
		}
		return
	}

	run := experiments.Exhibits
	if flag.NArg() > 0 {
		run = nil
		for _, name := range flag.Args() {
			i := slices.IndexFunc(experiments.Exhibits, func(e experiments.Exhibit) bool { return e.ID == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "quanto: unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
			run = append(run, experiments.Exhibits[i])
		}
	}
	for _, e := range run {
		rep, err := e.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quanto: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
	}
}
