// Command quanto-trace works with binary Quanto logs in the mote's 12-byte
// on-the-wire format (Figure 17 of the paper).
//
// Usage:
//
//	quanto-trace gen [-seed N] [-secs S] FILE    run Blink, write its log
//	quanto-trace dump FILE                       print entries
//	quanto-trace summary FILE                    per-type/resource counts
//	quanto-trace analyze FILE...                 per-node regression + energy totals
//	quanto-trace merge OUT FILE...               k-way merge node logs by time (for dump/summary)
//	quanto-trace sweep [-workers N] FILE         run a scenario spec or matrix
//	quanto-trace lifetime [-workers N] [-json] FILE   lifetime study of a spec or matrix
//	quanto-trace record OUT FILE                 run one shaped spec, write its send trace
//
// FILE and OUT may be "-" for stdin/stdout, so logs pipe between tools.
//
// analyze takes one log per node, with node ids by position as merge
// assigns them (first FILE = node 1). Energy is attributed one node at a
// time, so give it the per-node files, never merge's output: the merged
// stream carries no node ids and would be analyzed as one node. With
// several FILEs it prints each node's block under a "node N (FILE)" header,
// then the network's measured energy.
//
// sweep reads a declarative scenario spec, or a matrix sweeping any spec
// field over a list of values across replicated seeds, expands it, and runs
// the whole thing over a worker pool. One JSON result streams out per run in
// matrix order — byte-identical for any -workers value — followed by a final
// cross-seed aggregate with per-activity mean/stddev energy breakdowns:
//
//	echo '{"base": {"app": "lpl", "duration_us": 14000000, "seed": 1},
//	       "sweep": {"channel": [17, 26]}, "seeds": 8}' |
//	  quanto-trace sweep -workers 4 -
//
// Use -apps to list the registered workloads.
//
// Spatial radio studies sweep the same way: give the spec a placement
// ("line", "grid" or "rgg") and the propagation knobs (area_m,
// path_loss_exp, tx_range_m, capture_db) become ordinary sweepable fields,
// with per-link PRR tables and collision counts in every result. A
// 500-node random-geometric density×duty matrix is one JSON document:
//
//	echo '{"base": {"app": "relay", "nodes": 500, "duration_us": 5000000,
//	       "seed": 7, "placement": "rgg"},
//	       "sweep": {"area_m": [400, 800], "period_us": [250000, 1000000]},
//	       "seeds": 4}' |
//	  quanto-trace sweep -workers 4 -
//
// Synthetic traffic rides the same spec: give the spec a "traffic" object
// (shape constant/ramp/burst/diurnal/onoff/replay plus its knobs) and the
// send-driven apps (relay, bounce, sensesend) draw their schedules from it.
// A shape is set, or swept, in the spec file like every other field:
//
//	echo '{"app": "relay", "nodes": 16, "origins": 4, "duration_us": 5000000,
//	       "seed": 1, "placement": "line",
//	       "traffic": {"shape": "ramp", "start_rps": 2, "step_rps": 2,
//	                   "target_rps": 10, "slot_us": 1000000}}' |
//	  quanto-trace sweep -
//
// record runs one spec that sets a traffic shape and writes the realized
// send schedule as JSONL (header line, then {"node":N,"at_us":T} per send).
// A later run with {"shape":"replay","file":...} reproduces the recorded run
// byte for byte:
//
//	quanto-trace record trace.jsonl spec.json
//
// lifetime answers the question Quanto's accounting alone cannot: "how long
// does this node live on this budget?" It runs the same expanded matrix as
// sweep — the spec must give at least one node a finite battery
// (battery_uah / battery_node_uah, optionally harvest and death_policy) —
// and folds every run into a per-configuration, per-node table of death
// rate, mean time-to-death with a CI95 half-width across seeds, and mean
// remaining energy margin. -json emits the same report as one JSON document
// instead of the table. Output is byte-identical for any -workers value:
//
//	echo '{"base": {"app": "lpl", "duration_us": 30000000, "seed": 1,
//	       "channel": 17},
//	       "sweep": {"battery_uah": [4, 8],
//	                 "check_period_us": [250000, 500000]}, "seeds": 8}' |
//	  quanto-trace lifetime -workers 4 -
//
// Every subcommand streams through the batched decoder: a trace is processed
// in fixed-size chunks and never fully materialized, so multi-gigabyte logs
// use constant memory. The binary format is exactly what a real mote would
// stream over its serial back channel, so logs produced elsewhere work too.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/icount"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	// Exit via a return code so the deferred profile writers always run;
	// os.Exit here would truncate -cpuprofile/-memprofile output.
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the whole command behind an exit code: 0 on success, 1 when a
// subcommand fails, 2 for usage errors (unknown subcommand, flag-parse
// failure, out-of-range or invalid flag value, wrong arity) — which all
// print the usage text to stderr. Keeping every exit on this one return
// path is what lets the deferred profile writers run and the table test in
// main_test.go pin the contract.
func run(args []string, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "simulation seed (gen)")
	secs := fs.Int("secs", 48, "run length in seconds (gen)")
	workers := fs.Int("workers", 0, "worker pool size, 0 = GOMAXPROCS (sweep, lifetime)")
	listApps := fs.Bool("apps", false, "list registered scenario apps and exit (sweep)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of a table (lifetime)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the command to this file (sweep, lifetime)")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the command to this file (sweep, lifetime)")
	if err := fs.Parse(args[1:]); err != nil {
		// flag already reported the specific problem on stderr.
		usage(stderr)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "quanto-trace: -workers must be >= 0, got %d\n", *workers)
		usage(stderr)
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintf(stderr, "quanto-trace: -secs must be > 0, got %d\n", *secs)
		usage(stderr)
		return 2
	}

	// Profiling brackets the whole subcommand — world construction included —
	// so a perf investigation starts from where the time actually goes
	// instead of a guess about it.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "quanto-trace: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "quanto-trace: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "quanto-trace: memprofile: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC() // settle the live set so the profile shows retained heap
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "quanto-trace: memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	var err error
	switch cmd {
	case "gen":
		if fs.NArg() != 1 {
			usage(stderr)
			return 2
		}
		err = gen(fs.Arg(0), *seed, *secs)
	case "dump":
		err = withStream(fs.Args(), dump)
	case "summary":
		err = withStream(fs.Args(), summary)
	case "analyze":
		err = analyze(os.Stdout, fs.Args())
	case "merge":
		if fs.NArg() < 2 {
			usage(stderr)
			return 2
		}
		err = merge(fs.Arg(0), fs.Args()[1:])
	case "sweep":
		if *listApps {
			for _, name := range scenario.Apps() {
				fmt.Println(name)
			}
			return 0
		}
		if fs.NArg() != 1 {
			usage(stderr)
			return 2
		}
		err = sweep(fs.Arg(0), *workers)
	case "lifetime":
		if fs.NArg() != 1 {
			usage(stderr)
			return 2
		}
		err = lifetime(fs.Arg(0), *workers, *jsonOut)
	case "record":
		if fs.NArg() != 2 {
			usage(stderr)
			return 2
		}
		err = record(fs.Arg(0), fs.Arg(1))
	default:
		fmt.Fprintf(stderr, "quanto-trace: unknown subcommand %q\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "quanto-trace: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: quanto-trace gen|dump|summary [flags] FILE
       quanto-trace analyze FILE...     (one log per node; not merge output)
       quanto-trace merge OUT FILE...   (output has no node ids: for dump/summary)
       quanto-trace sweep [-workers N] [-apps] [-cpuprofile F] [-memprofile F] FILE
       quanto-trace lifetime [-workers N] [-json] [-cpuprofile F] [-memprofile F] FILE
       quanto-trace record OUT FILE     (FILE must set a traffic shape)
FILE/OUT may be "-" for stdin/stdout`)
}

// openIn opens a trace input; "" or "-" selects stdin.
func openIn(name string) (io.ReadCloser, error) {
	if name == "" || name == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(name)
}

// openOut opens a trace output; "-" selects stdout.
func openOut(name string) (io.WriteCloser, func() error, error) {
	if name == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// withStream runs fn over batches decoded from the (at most one) named
// input, never holding more than one batch in memory.
func withStream(args []string, fn func(r *trace.Reader) error) error {
	if len(args) > 1 {
		return fmt.Errorf("expected at most one FILE, got %d arguments", len(args))
	}
	name := ""
	if len(args) == 1 {
		name = args[0]
	}
	in, err := openIn(name)
	if err != nil {
		return err
	}
	defer in.Close()
	return fn(trace.NewReader(bufio.NewReaderSize(in, 1<<16)))
}

// forEachBatch drives a reader to EOF in fixed-size batches.
func forEachBatch(r *trace.Reader, fn func(batch []core.Entry) error) error {
	buf := make([]core.Entry, trace.DefaultBatchEntries)
	for {
		n, err := r.ReadBatch(buf)
		if err == io.EOF {
			return nil
		}
		if n > 0 {
			if ferr := fn(buf[:n]); ferr != nil {
				return ferr
			}
		}
		if err != nil {
			return err
		}
	}
}

func gen(file string, seed uint64, secs int) error {
	_, n, _ := apps.RunBlink(seed, units.Ticks(secs)*units.Second)
	out, closeOut, err := openOut(file)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	w := trace.NewWriter(bw)
	// Write in bounded chunks so the encode buffer stays small no matter
	// how long the run was.
	for entries := n.Log.Entries; len(entries) > 0; {
		chunk := entries
		if len(chunk) > trace.DefaultBatchEntries {
			chunk = chunk[:trace.DefaultBatchEntries]
		}
		if err := w.WriteBatch(chunk); err != nil {
			return err
		}
		entries = entries[len(chunk):]
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d entries (%d bytes) to %s\n",
		w.Count(), w.Count()*trace.EntrySize, file)
	return nil
}

func dump(r *trace.Reader) error {
	w := bufio.NewWriterSize(os.Stdout, 1<<16)
	i := 0
	err := forEachBatch(r, func(batch []core.Entry) error {
		for _, e := range batch {
			fmt.Fprintf(w, "%6d %s\n", i, e)
			i++
		}
		return nil
	})
	// bufio latches the first write error; don't let Flush's result vanish.
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	return err
}

func summary(r *trace.Reader) error {
	counters := core.NewCounterSink()
	// The wire timestamp is 32 bits (~71.6 min); unwrap it so long traces
	// report their true span, and count pulses in 64 bits for the same
	// reason. A merged multi-node trace interleaves unrelated iCount
	// counters (the wire format carries no node id), which shows up as huge
	// backwards jumps — flag it and report the pulse count as meaningless
	// rather than summing garbage deltas.
	var uw trace.Unwrapper
	var startUS, endUS int64
	var pulses uint64
	var lastIC uint32
	interleaved := false
	total := 0
	err := forEachBatch(r, func(batch []core.Entry) error {
		for _, e := range batch {
			at := uw.At(e.Time)
			if total == 0 {
				startUS = at
				lastIC = e.IC
			}
			endUS = at
			d := e.IC - lastIC // uint32 wrap-aware delta
			if d >= 1<<31 {
				// A real counter never loses ground; this is another node's
				// counter spliced in by a merge.
				interleaved = true
			}
			pulses += uint64(d)
			lastIC = e.IC
			total++
		}
		counters.RecordBatch(batch)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("entries: %d (%d bytes)\n\nby type:\n", total, total*core.EntrySize)
	types := make([]int, 0, len(counters.PerType))
	for t := range counters.PerType {
		types = append(types, int(t))
	}
	sort.Ints(types)
	for _, t := range types {
		fmt.Printf("  %-6s %6d\n", core.EntryType(t), counters.PerType[core.EntryType(t)])
	}
	fmt.Println("by resource:")
	rs := make([]int, 0, len(counters.PerRes))
	for r := range counters.PerRes {
		rs = append(rs, int(r))
	}
	sort.Ints(rs)
	for _, r := range rs {
		fmt.Printf("  res%-4d %6d\n", r, counters.PerRes[core.ResourceID(r)])
	}
	if total > 0 {
		if interleaved {
			fmt.Printf("span: %d us, pulses: n/a (merged stream interleaves per-node counters)\n", endUS-startUS)
		} else {
			fmt.Printf("span: %d us, %d pulses\n", endUS-startUS, pulses)
		}
	}
	return nil
}

// analyze analyzes each named log as its own node (node ids by position,
// as merge assigns them) through one NetworkAnalyzer. A single log prints
// its block alone; several print one block per node in id order, then the
// network's measured energy.
func analyze(w io.Writer, names []string) error {
	if len(names) == 0 {
		names = []string{"-"}
	}
	if err := atMostOneStdin(names); err != nil {
		return err
	}
	na := analysis.NewNetworkAnalyzer(core.NewDictionary(), analysis.DefaultOptions(), 0, 0)
	for i, name := range names {
		sa := na.AddNode(core.NodeID(i+1), icount.PulseEnergyMicroJoules, 3.0)
		if err := withStream([]string{name}, func(r *trace.Reader) error {
			return forEachBatch(r, func(batch []core.Entry) error {
				sa.RecordBatch(batch)
				return nil
			})
		}); err != nil {
			if len(names) > 1 {
				return fmt.Errorf("node %d (%s): %w", i+1, name, err)
			}
			return err
		}
	}
	net, err := na.Finish()
	if err != nil {
		return err
	}
	if len(names) == 1 {
		printAnalysis(w, net.Nodes[1])
		return nil
	}
	for i, name := range names {
		fmt.Fprintf(w, "node %d (%s)\n", i+1, name)
		printAnalysis(w, net.Nodes[core.NodeID(i+1)])
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "network measured energy: %.2f mJ\n", net.TotalEnergyUJ()/1000)
	return nil
}

// printAnalysis prints one node's regression and energy totals.
func printAnalysis(w io.Writer, a *analysis.Analysis) {
	fmt.Fprintf(w, "span:             %.3f s\n", float64(a.Span())/1e6)
	fmt.Fprintf(w, "measured energy:  %.2f mJ\n", a.TotalEnergyUJ()/1000)
	fmt.Fprintf(w, "average power:    %.2f mW\n", a.AveragePowerMW())
	fmt.Fprintf(w, "state groups:     %d\n", len(a.Reg.Groups))
	fmt.Fprintln(w, "\nfitted draws (mW):")
	for _, p := range a.Reg.Predictors {
		fmt.Fprintf(w, "  res%-3d state%-3d %8.3f\n", p.Res, p.State, a.Reg.PowerMW[p])
	}
	fmt.Fprintf(w, "  const            %8.3f\n", a.Reg.ConstMW)
	fmt.Fprintf(w, "\nreconstruction error: %.5f%%\n", a.ReconstructionError()*100)
}

// sweep expands a spec or matrix file and runs it over a worker pool,
// streaming one JSON result line per run in matrix order and a final
// aggregate line. The output bytes depend only on the matrix content — not
// on the worker count or which run finishes first.
func sweep(name string, workers int) error {
	in, err := openIn(name)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(in)
	in.Close()
	if err != nil {
		return err
	}
	specs, err := scenario.ParseSpecOrMatrix(data)
	if err != nil {
		return err
	}
	effective := workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	if effective > len(specs) {
		effective = len(specs)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d runs, %d workers\n", len(specs), effective)

	w := bufio.NewWriterSize(os.Stdout, 1<<16)
	enc := json.NewEncoder(w)
	failed := 0
	rn := &scenario.Runner{
		Workers: workers,
		OnResult: func(r *scenario.Result) {
			if r.Error != "" {
				failed++
			}
			enc.Encode(r)
		},
	}
	results := rn.Run(specs)

	ag := scenario.Aggregate(results)
	if err := enc.Encode(struct {
		Aggregate *analysis.Aggregate `json:"aggregate"`
	}{ag}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed (see their error fields)", failed, len(specs))
	}
	return nil
}

// lifetime expands a spec or matrix file (which must give at least one node
// a finite battery), runs it over a worker pool, and reports per-node
// lifetimes: death rate, mean time-to-death with CI95 across seeds, and mean
// energy margin, per swept configuration. The per-run results stream to
// stderr-free stdout only in -json mode; the default output is the rendered
// table. Either form depends only on the matrix content, never the worker
// count.
//
// Routed runs (routing set in the spec) additionally get the network-layer
// report: delivery ratio, tree depth, reroutes, and — the study this
// subcommand exists for — how far past the first death the collection tree
// kept delivering. In -json mode a routed study nests both reports as
// {"lifetime": ..., "routes": ...}; unrouted studies keep the legacy
// single-report shape.
func lifetime(name string, workers int, jsonOut bool) error {
	in, err := openIn(name)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(in)
	in.Close()
	if err != nil {
		return err
	}
	specs, err := scenario.ParseSpecOrMatrix(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lifetime: %d runs\n", len(specs))
	results := (&scenario.Runner{Workers: workers}).Run(specs)
	failed := 0
	for _, r := range results {
		if r != nil && r.Error != "" {
			failed++
			fmt.Fprintf(os.Stderr, "lifetime: run %d failed: %s\n", r.Run, r.Error)
		}
	}
	report := scenario.Lifetimes(results)
	if report.Empty() {
		// Failed runs contribute nothing to the report; don't misdiagnose
		// an all-failed sweep as a missing battery.
		if failed > 0 {
			return fmt.Errorf("%d of %d runs failed", failed, len(results))
		}
		return fmt.Errorf("no node has a finite battery; set battery_uah or battery_node_uah in the spec")
	}
	routes := scenario.Routes(results)
	w := bufio.NewWriterSize(os.Stdout, 1<<16)
	if jsonOut {
		enc := json.NewEncoder(w)
		if routes.Empty() {
			if err := enc.Encode(report); err != nil {
				return err
			}
		} else if err := enc.Encode(map[string]any{
			"lifetime": report,
			"routes":   routes,
		}); err != nil {
			return err
		}
	} else {
		if _, err := io.WriteString(w, report.Render()); err != nil {
			return err
		}
		if !routes.Empty() {
			if _, err := io.WriteString(w, "\nrouting:\n"+routes.Render()); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, len(results))
	}
	return nil
}

// record runs one shaped spec and writes its realized send schedule as JSONL
// to OUT. The input must expand to exactly one run whose spec sets a traffic
// shape its app honors. The written file feeds straight back in as
// {"shape": "replay", "file": ...}, reproducing the run byte for byte.
func record(outName, name string) error {
	in, err := openIn(name)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(in)
	in.Close()
	if err != nil {
		return err
	}
	specs, err := scenario.ParseSpecOrMatrix(data)
	if err != nil {
		return err
	}
	if len(specs) != 1 {
		return fmt.Errorf("record needs exactly one run, matrix expands to %d", len(specs))
	}
	spec := specs[0]
	if spec.Traffic == nil {
		return fmt.Errorf("record needs a traffic shape: set the spec's traffic field")
	}
	inst, err := scenario.Build(spec)
	if err != nil {
		return err
	}
	inst.Run()
	out, closeOut, err := openOut(outName)
	if err != nil {
		return err
	}
	if err := inst.Traffic.WriteJSONL(out); err != nil {
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d sends to %s\n", len(inst.Traffic.Events()), outName)
	return nil
}

// merge k-way merges several per-node logs into one time-ordered stream,
// decoding each input concurrently. Node ids are assigned by position
// (first input = node 1). Only the 12-byte entries are written — the merged
// stream is a valid trace itself, but it carries no node ids: it is meant
// for dump and summary. Analyze the per-node inputs instead (analyze
// FILE...), since a merged stream would be analyzed as a single node.
func merge(outName string, inNames []string) error {
	if err := atMostOneStdin(inNames); err != nil {
		return err
	}
	streams := make([]trace.ReaderStream, len(inNames))
	for i, name := range inNames {
		in, err := openIn(name)
		if err != nil {
			return err
		}
		defer in.Close()
		streams[i] = trace.ReaderStream{
			Node: core.NodeID(i + 1),
			R:    bufio.NewReaderSize(in, 1<<16),
		}
	}
	m, err := trace.MergeReaders(streams, 0)
	if err != nil {
		return err
	}
	out, closeOut, err := openOut(outName)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	w := trace.NewWriter(bw)
	batch := make([]core.Entry, 0, trace.DefaultBatchEntries)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := w.WriteBatch(batch)
		batch = batch[:0]
		return err
	}
	for {
		s, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Entries merged before the failure are still written out,
			// mirroring the merger's own no-silent-loss contract; the
			// nonzero exit reports the truncation.
			flush()
			bw.Flush()
			return err
		}
		batch = append(batch, s.Entry)
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				// Abandoning the merge mid-stream: release the per-input
				// decode goroutines before bailing out.
				m.Close()
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "merged %d inputs into %d entries\n", len(inNames), w.Count())
	return nil
}

// atMostOneStdin rejects an input list that names stdin ("" or "-") more
// than once: one stream cannot be read as two nodes.
func atMostOneStdin(names []string) error {
	stdins := 0
	for _, name := range names {
		if name == "" || name == "-" {
			stdins++
		}
	}
	if stdins > 1 {
		return fmt.Errorf("stdin may be given as at most one input, got %d", stdins)
	}
	return nil
}
