// Command e2ebench is the repository's end-to-end benchmark. One process
// runs one workload closed-loop — each operation starts after the previous
// one has finished — for a window of host time, checks every operation's
// output, and prints one JSON line as the last line of standard output: the
// end-to-end metrics, or, with --trace 1, the per-layer metrics of a
// separate traced pass.
//
// Everything is measured from outside the simulator: the benchmark times
// its own calls into the public scenario, mote, trace and analysis APIs and
// reads public counters after each run. README.md describes the workloads,
// the metrics and which layer each metric is expected to move.
//
// run.sh builds it from source and runs it from the repository root:
//
//	bash e2ebench/run.sh --workload relay-10k --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outDir receives the traced pass's spans and CPU profiles, relative to the
// repository root run.sh starts the benchmark in.
const outDir = ".bench_build/trace"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 20, "host seconds of closed-loop operations to measure")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	prepare, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(stderr, "usage: e2ebench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	fmt.Fprintln(stdout, hostRecord())

	b, err := prepare(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: prepare %s: %v\n", *name, err)
		return 1
	}
	window := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traced == 1 {
		rep, err = tracedPass(b, window, fmt.Sprintf("%s-seed%d", *name, *seed))
	} else {
		rep = untracedPass(b, window)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintf(stderr, "e2ebench: %s: operation failed: %v\n", *name, e)
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d trace=%d attempted=%d failed=%d fingerprint=%s mote.events=%d\n",
		*name, *seed, *traced, rep.attempted, len(rep.errs), rep.fingerprintList(), rep.events)
	line, err := json.Marshal(result{
		Correct:   len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    len(rep.errs),
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one pass measured.
type report struct {
	attempted    int
	errs         []error
	fingerprints map[int]string // per variant: the first successful operation's output hash
	events       int            // variant 0's simulator events
	metrics      map[string]metric
}

// check counts one attempted operation and holds it to the pass's
// reference: operations of one variant run the same input, so each
// fingerprint must equal the variant's first one.
func (r *report) check(res *opResult, err error) bool {
	r.attempted++
	if err == nil {
		if r.fingerprints == nil {
			r.fingerprints = make(map[int]string)
		}
		ref, seen := r.fingerprints[res.variant]
		switch {
		case !seen:
			r.fingerprints[res.variant] = res.fingerprint
			if res.variant == 0 {
				r.events = res.events
			}
		case res.fingerprint != ref:
			err = fmt.Errorf("same-seed repeat of variant %d changed the output: fingerprint %s, first operation %s",
				res.variant, res.fingerprint, ref)
		}
	}
	if err != nil {
		r.errs = append(r.errs, err)
		return false
	}
	return true
}

// fingerprintList renders the per-variant fingerprints in variant order.
func (r *report) fingerprintList() string {
	var parts []string
	for _, v := range slices.Sorted(maps.Keys(r.fingerprints)) {
		parts = append(parts, r.fingerprints[v])
	}
	return strings.Join(parts, ",")
}

// bench is one prepared workload.
type bench struct {
	// variants is how many distinct inputs the workload derives from the
	// seed; untraced operations cycle through them so that one run's
	// figures average over several placements or schedules, not one.
	variants int
	// op runs one operation of variant v on the user-facing path and
	// checks its output.
	op func(v int) (*opResult, error)
	// traced runs variant 0's operation with spans recorded into tr and
	// returns the per-layer counters with it; its fingerprint must equal
	// op's.
	traced func(tr *tracer) (*opResult, error)
}

// cost is what an operation's user-facing path took.
type cost struct {
	wall time.Duration
	// cpu is the process's user and system CPU time over the path, every
	// thread included (GC, sweep workers). The kernel does not charge it
	// with time the hypervisor stole from the virtual CPU.
	cpu   time.Duration
	alloc uint64 // heap bytes allocated
}

// opResult is one checked operation.
type opResult struct {
	cost
	variant int
	setup   time.Duration // the operation's set-up: Build, Matrix.Expand, or generating the input
	runs    int           // simulation runs (or offline analyses) completed
	entries int           // log entries analyzed
	// gapPct is the largest |Σ per-activity energy − Σ metered energy| /
	// metered over the operation's runs, in percent.
	gapPct      float64
	fingerprint string // hash of the operation's output
	events      int    // simulator events dispatched, when observable
	// output is the operation's output, referenced until the live heap has
	// been measured.
	output any
	// layer holds the traced operation's deterministic counters.
	layer map[string]float64
}

// timeIt runs the user-facing path of an operation and measures its cost.
// Checks and fingerprints run after it.
func timeIt(fn func() error) (cost, error) {
	a0, c0 := readMetric("/gc/heap/allocs:bytes"), cpuTime()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	return cost{wall: wall, cpu: cpuTime() - c0, alloc: readMetric("/gc/heap/allocs:bytes") - a0}, err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample is one measured operation.
type sample struct {
	*opResult
	liveBytes uint64
}

// measure runs one operation from a collected heap and, outside its timed
// span, forces a GC while the output is still referenced to read the live
// heap.
func measure(op func() (*opResult, error)) (sample, error) {
	runtime.GC()
	res, err := guard(op)
	if err != nil {
		return sample{}, err
	}
	runtime.GC()
	live := readMetric("/gc/heap/live:bytes")
	runtime.KeepAlive(res.output)
	res.output = nil
	return sample{opResult: res, liveBytes: live}, nil
}

// guard turns a panic in op into an operation failure.
func guard(op func() (*opResult, error)) (res *opResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return op()
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// untracedPass runs one warm-up operation, then operations until the window
// is spent, cycling through the variants. Every operation is checked, the
// warm-up too. Each end-to-end metric is the median over a variant's
// operations, averaged over the variants.
func untracedPass(b *bench, window time.Duration) *report {
	rep := &report{}
	var samples []sample
	var start time.Time
	for i := 0; ; i++ {
		v := max(i-1, 0) % b.variants
		s, err := measure(func() (*opResult, error) { return b.op(v) })
		ok := rep.check(s.opResult, err)
		if ok {
			fmt.Fprintf(os.Stderr, "op %d variant %d wall=%.4fs cpu=%.4fs\n", i, v, s.wall.Seconds(), s.cpu.Seconds())
		}
		if i == 0 {
			start = time.Now()
			continue
		}
		if !ok {
			break // a failing workload is not measured further
		}
		samples = append(samples, s)
		if time.Since(start)+s.wall > window {
			break
		}
	}

	rep.metrics = map[string]metric{
		"cpu_s":          {aggregate(samples, func(s sample) float64 { return s.cpu.Seconds() }), "s"},
		"setup_s":        {aggregate(samples, func(s sample) float64 { return s.setup.Seconds() }), "s"},
		"runs_per_s":     {aggregate(samples, func(s sample) float64 { return float64(s.runs) / s.cpu.Seconds() }), "runs/s"},
		"entries_per_s":  {aggregate(samples, func(s sample) float64 { return float64(s.entries) / s.cpu.Seconds() }), "entries/s"},
		"alloc_mb":       {aggregate(samples, func(s sample) float64 { return float64(s.alloc) / 1e6 }), "MB"},
		"heap_live_mb":   {aggregate(samples, func(s sample) float64 { return float64(s.liveBytes) / 1e6 }), "MB"},
		"attrib_gap_pct": {aggregate(samples, func(s sample) float64 { return s.gapPct }), "%"},
	}
	return rep
}

// aggregate reduces one per-operation value over a pass: the median over
// each variant's operations, averaged over the variants.
func aggregate(samples []sample, f func(sample) float64) float64 {
	byVariant := make(map[int][]float64)
	for _, s := range samples {
		byVariant[s.variant] = append(byVariant[s.variant], f(s))
	}
	if len(byVariant) == 0 {
		return 0
	}
	var sum float64
	for _, v := range slices.Sorted(maps.Keys(byVariant)) {
		sum += median(byVariant[v])
	}
	return sum / float64(len(byVariant))
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// fingerprint hashes the JSON encoding of an operation's output.
func fingerprint(v any) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// hostRecord names the host the numbers were measured on.
func hostRecord() string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
