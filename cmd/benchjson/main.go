// benchjson turns `go test -bench` output into a schema'd JSON artifact and
// compares fresh runs against a committed baseline.
//
// The repo's perf trajectory lives in one BENCH_<suite>.json file per
// benchmark suite at the repo root — core, sweep, medium, lifetime,
// traffic, net and pipeline — each a quanto-bench/v1 document listing
// ns/op, B/op, allocs/op and every custom metric (events/sec, runs/sec per
// worker count, entries/s, ...) for every sub-benchmark. CI regenerates the
// numbers on each push and runs the compare mode against the committed
// files, so a scheduler, medium or analysis regression shows up as a red
// check instead of a slow drift.
//
// Emit an artifact:
//
//	go test -run '^$' -bench Benchmark10kNodeRelay -benchmem -benchtime 3x ./internal/sim |
//	    benchjson -suite core -out BENCH_core.json
//
// Compare a fresh run against the committed baseline (exit 1 on >15%
// allocs/op or B/op regression, any allocation in a row recorded at 0, or
// a row only one side has; warning annotations for time, which is noisy on
// shared runners; -fail-on time,allocs,bytes tightens it). Neither
// allocs/op nor B/op depends on the host, and B/op also catches a table
// that regrows in fewer, larger steps with allocs/op nearly flat. A benchmark whose
// events/run differs from the baseline's also exits 1, as a stale baseline
// to re-record rather than a regression. A baseline recorded under another
// GOMAXPROCS gets a note, not a failure:
//
//	go test -run '^$' -bench Benchmark10kNodeRelay -benchmem -benchtime 3x ./internal/sim |
//	    benchjson -suite core -compare BENCH_core.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/benchfmt"
)

func main() {
	var (
		suite     = flag.String("suite", "", "suite name recorded in the artifact (core, sweep, medium, lifetime, traffic, net, pipeline)")
		in        = flag.String("in", "-", "bench output to read (- for stdin)")
		out       = flag.String("out", "", "write the parsed artifact to this file")
		compare   = flag.String("compare", "", "baseline artifact to compare the fresh run against")
		threshold = flag.Float64("threshold", 0.15, "relative regression that fails or annotates")
		failOn    = flag.String("fail-on", "allocs,bytes", "comma list of dimensions that exit non-zero on regression: allocs, bytes, time")
	)
	flag.Parse()
	if *out == "" && *compare == "" {
		fmt.Fprintln(os.Stderr, "benchjson: need -out and/or -compare")
		os.Exit(2)
	}

	src := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	doc, err := benchfmt.Parse(src, *suite)
	if err != nil {
		fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines in input"))
	}

	if *out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
	}

	if *compare != "" {
		base, err := benchfmt.Load(*compare)
		if err != nil {
			fatal(err)
		}
		failDims := map[string]bool{}
		for _, d := range strings.Split(*failOn, ",") {
			if d = strings.TrimSpace(d); d != "" {
				failDims[d] = true
			}
		}
		if base.Procs != doc.Procs {
			// Not a failure: allocs, bytes and events/run do not depend on
			// the CPU count, but wall time and any per-worker throughput do.
			fmt.Printf("note: %s ran with GOMAXPROCS=%s, this run with %s: timings are not comparable\n",
				*compare, procsString(base.Procs), procsString(doc.Procs))
		}
		report := benchfmt.Compare(base, doc, *threshold)
		sort.Slice(report, func(i, j int) bool { return report[i].Name < report[j].Name })
		bad, stale := false, false
		for _, d := range report {
			line := fmt.Sprintf("%s: %s %.4g -> %.4g (%+.1f%%)", d.Name, d.Dimension, d.Base, d.Current, 100*d.Delta)
			switch {
			case d.Missing:
				// A benchmark in the baseline but absent from the fresh run
				// means the CI bench invocation and the committed artifact
				// have drifted apart (renamed benchmark, narrowed -bench
				// regex) — the compare would silently stop guarding it, so
				// treat it as a failure, not a warning.
				bad = true
				fmt.Printf("::error title=bench-compare::%s: in baseline but not in this run\n", d.Name)
			case d.Unrecorded:
				// A benchmark the run produced but the baseline lacks is
				// guarded by nothing: record it (or narrow the regex).
				bad = true
				fmt.Printf("::error title=bench-compare::%s: not in baseline\n", d.Name)
			case d.Stale:
				// Different events/run means a different workload, not a
				// regression: its time and allocs say nothing until the
				// baseline is recorded again.
				stale = true
				fmt.Printf("::error title=bench-stale::%s: workload changed (%s %.0f → %.0f): re-record the baseline\n",
					d.Name, d.Dimension, d.Base, d.Current)
			case d.Delta > *threshold && failDims[d.Dimension]:
				bad = true
				fmt.Printf("::error title=bench-regression::%s\n", line)
			case d.Delta > *threshold:
				fmt.Printf("::warning title=bench-regression::%s\n", line)
			default:
				fmt.Printf("bench-compare ok: %s\n", line)
			}
		}
		if stale {
			fmt.Fprintf(os.Stderr, "benchjson: workload changed since %s was recorded: re-record the baseline\n", *compare)
		}
		if bad {
			fmt.Fprintf(os.Stderr, "benchjson: regression beyond %.0f%% vs %s\n", 100**threshold, *compare)
		}
		if bad || stale {
			os.Exit(1)
		}
	}
}

// procsString renders a Doc's Procs, where 0 means it was not recorded.
func procsString(n int) string {
	if n == 0 {
		return "unrecorded"
	}
	return fmt.Sprint(n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
