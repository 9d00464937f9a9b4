package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// perLayer lists the traced pass's metrics, in output order. Every workload
// prints all of them; 0 means the layer does no work on that workload.
var perLayer = []metricDef{
	// Host-time spans: per operation, the summed durations of the spans of
	// that name (summed over runs, and so over workers, on lpl-sweep).
	{"scenario.expand_s", "s"}, {"scenario.build_s", "s"}, {"mote.run_s", "s"},
	{"trace.merge_s", "s"}, {"analysis.consume_s", "s"}, {"analysis.breakdown_s", "s"},
	{"scenario.finish_s", "s"}, {"scenario.fold_s", "s"}, {"scenario.runner_busy_frac", "frac"},
	// Deterministic counters read after each run.
	{"mote.events", "count"}, {"mote.ns_per_event", "ns"}, {"sim.pending_hwm", "count"},
	{"core.entries", "count"}, {"core.dropped", "count"},
	{"medium.frames", "count"}, {"medium.collisions", "count"}, {"medium.link_prr", "frac"},
	{"radio.cca_samples", "count"}, {"radio.cca_positive_frac", "frac"},
	{"net.beacons_tx", "count"}, {"net.beacons_rx", "count"}, {"net.parent_changes", "count"},
	{"net.no_route", "count"}, {"net.beacons_per_delivery", "ratio"},
	{"apps.generated", "count"}, {"apps.delivered", "count"}, {"apps.delivery_ratio", "frac"},
	{"apps.dropped", "count"}, {"apps.wakeups", "count"}, {"apps.fp_rate", "frac"},
	{"power.deaths", "count"}, {"power.first_death_s", "s"},
	{"traffic.sends", "count"}, {"trace.entries", "count"}, {"trace.streams", "count"},
	{"analysis.segments", "count"}, {"analysis.labels", "count"}, {"linalg.groups", "count"},
	// Self time per package of the leaf frame, from the CPU profile of the
	// traced operations, in percent of all samples.
	{"cpu.sim", "%"}, {"cpu.kernel", "%"}, {"cpu.radio", "%"}, {"cpu.medium", "%"},
	{"cpu.net", "%"}, {"cpu.power", "%"}, {"cpu.icount", "%"}, {"cpu.core", "%"},
	{"cpu.apps", "%"}, {"cpu.traffic", "%"}, {"cpu.trace", "%"}, {"cpu.analysis", "%"},
	{"cpu.linalg", "%"}, {"cpu.scenario", "%"}, {"cpu.runtime", "%"}, {"cpu.other", "%"},
	// Host wall time of one operation, untraced and traced (median), in
	// the same process; their difference is the tracing overhead.
	{"bench.untraced_wall_s", "s"}, {"bench.traced_wall_s", "s"}, {"bench.trace_overhead_s", "s"},
}

type metricDef struct{ name, unit string }

// spanMetrics maps the span-derived metrics to the span names they sum.
var spanMetrics = map[string]string{
	"scenario.expand_s":    "scenario.expand",
	"scenario.build_s":     "scenario.build",
	"mote.run_s":           "mote.run",
	"trace.merge_s":        "trace.merge",
	"analysis.consume_s":   "analysis.consume",
	"analysis.breakdown_s": "analysis.breakdown",
	"scenario.finish_s":    "scenario.finish",
	"scenario.fold_s":      "scenario.fold",
}

// span is one timed call, in seconds since the tracer started. Op numbers
// the traced operation it belongs to; Parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the pass ends. Spans may be recorded
// from several goroutines (lpl-sweep's workers).
type tracer struct {
	origin   time.Time
	dir, tag string

	mu       sync.Mutex
	spans    []span
	op       int
	profiles []string
}

func (t *tracer) start(name string, parent int) int {
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: now})
	return len(t.spans)
}

// stop closes span id and returns its duration.
func (t *tracer) stop(id int) time.Duration {
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return time.Duration((sp.End - sp.Start) * float64(time.Second))
}

// profiled runs fn as one traced operation: an "op" span, covered by a CPU
// profile of its own. Work done after it (the analysis replay) is neither
// in the span nor in the profile.
func (t *tracer) profiled(fn func(op int) error) (wall time.Duration, err error) {
	t.mu.Lock()
	t.op++
	path := filepath.Join(t.dir, fmt.Sprintf("%s-op%d.pprof", t.tag, t.op))
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return 0, err
	}
	t.profiles = append(t.profiles, path)
	defer func() {
		pprof.StopCPUProfile()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	id := t.start("op", 0)
	err = fn(id)
	return t.stop(id), err
}

// total sums the durations of op's spans named name.
func (t *tracer) total(op int, name string) float64 {
	var sum float64
	for _, sp := range t.spans {
		if sp.Op == op && sp.Name == name && sp.End > 0 {
			sum += sp.End - sp.Start
		}
	}
	return sum
}

// tracedPass runs two untraced operations — a warm-up, then the reference
// the tracing overhead is measured against — and then traced operations
// until the window is spent (at least one). Traced operations must
// reproduce the untraced fingerprint.
func tracedPass(b *bench, window time.Duration, tag string) (*report, error) {
	rep := &report{}
	var untraced time.Duration
	for i := 0; i < 2; i++ {
		s, err := measure(func() (*opResult, error) { return b.op(0) })
		if rep.check(s.opResult, err) {
			untraced = s.wall
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tr := &tracer{origin: time.Now(), dir: outDir, tag: tag}
	type tracedOp struct {
		op  int
		res *opResult
	}
	var done []tracedOp
	start := time.Now()
	for {
		res, err := guard(func() (*opResult, error) { return b.traced(tr) })
		if !rep.check(res, err) {
			break
		}
		done = append(done, tracedOp{tr.op, res})
		if time.Since(start)+res.wall > window {
			break
		}
	}

	values := make(map[string]float64)
	if len(done) > 0 {
		med := func(f func(d tracedOp) float64) float64 {
			vs := make([]float64, len(done))
			for i, d := range done {
				vs[i] = f(d)
			}
			return median(vs)
		}
		for m, name := range spanMetrics {
			values[m] = med(func(d tracedOp) float64 { return tr.total(d.op, name) })
		}
		values["scenario.runner_busy_frac"] = med(func(d tracedOp) float64 {
			pool := tr.total(d.op, "scenario.runner")
			if pool == 0 {
				return 0
			}
			return tr.total(d.op, "scenario.run") / (float64(runtime.NumCPU()) * pool)
		})
		last := done[len(done)-1].res.layer
		for k, v := range last {
			values[k] = v
		}
		if ev := last["mote.events"]; ev > 0 {
			values["mote.ns_per_event"] = values["mote.run_s"] * 1e9 / ev
		}
		values["bench.traced_wall_s"] = med(func(d tracedOp) float64 { return d.res.wall.Seconds() })
		values["bench.untraced_wall_s"] = untraced.Seconds()
		values["bench.trace_overhead_s"] = values["bench.traced_wall_s"] - untraced.Seconds()

		shares, err := cpuShares(tr.profiles)
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			values[k] = v
		}
	}
	if err := writeSpans(tr, tag); err != nil {
		return nil, err
	}
	rep.metrics = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		rep.metrics[d.name] = metric{values[d.name], d.unit}
	}
	return rep, nil
}

// ratios derives the per-layer ratios from the summed counters in layer.
func ratios(layer map[string]float64) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layer["medium.link_prr"] = div(layer["medium.link_delivered"], layer["medium.link_attempts"])
	layer["radio.cca_positive_frac"] = div(layer["radio.cca_positives"], layer["radio.cca_samples"])
	layer["net.beacons_per_delivery"] = div(layer["net.beacons_tx"], layer["apps.delivered"])
	layer["apps.delivery_ratio"] = div(layer["apps.delivered"], layer["apps.generated"])
	layer["apps.fp_rate"] = div(layer["apps.false_positives"], layer["apps.wakeups"])
}

func writeSpans(tr *tracer, tag string) error {
	data, err := json.Marshal(struct {
		Run   string `json:"run"`
		Host  string `json:"host"`
		Spans []span `json:"spans"`
	}{tag, hostRecord(), tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(tr.dir, tag+"-spans.json"), data, 0o644)
}

// cpuGroups are the repository packages reported as cpu.<name>; the other
// repository packages count as cpu.other.
var cpuGroups = map[string]bool{
	"sim": true, "kernel": true, "radio": true, "medium": true, "net": true,
	"power": true, "icount": true, "core": true, "apps": true, "traffic": true,
	"trace": true, "analysis": true, "linalg": true, "scenario": true,
}

// cpuShares groups the profiles' self time by the package of the leaf
// frame, with the pprof that ships with the Go toolchain, and returns each
// group's share of all samples in percent. cpu.runtime is the runtime
// proper and its internal packages (GC, allocation, map internals,
// scheduling); the standard library and the benchmark's own code count as
// cpu.other.
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms"}, profiles...)
	cmd := exec.Command("go", args...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byGroup := make(map[string]float64)
	var total float64
	header := false
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if !header {
			header = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unexpected line %q", line)
		}
		byGroup[cpuGroup(strings.Join(f[5:], " "))] += ms
		total += ms
	}
	if !header || total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %d profiles", len(profiles))
	}
	shares := make(map[string]float64, len(byGroup))
	for g, ms := range byGroup {
		shares["cpu."+g] = ms / total * 100
	}
	return shares, nil
}

// cpuGroup names the group of a profiled function by its package.
func cpuGroup(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		if cpuGroups[name] {
			return name
		}
	}
	return "other"
}
