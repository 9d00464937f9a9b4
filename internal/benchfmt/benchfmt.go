// Package benchfmt parses `go test -bench` output into the quanto-bench/v1
// JSON schema and diffs two such documents. It backs cmd/benchjson and the
// CI bench-compare step; the committed BENCH_*.json trajectory files at the
// repo root are Doc values serialized with two-space indentation.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Schema is the document identifier; bump it if a field changes meaning.
const Schema = "quanto-bench/v1"

// Doc is one benchmark suite's results on one machine.
type Doc struct {
	Schema string `json:"schema"`
	Suite  string `json:"suite"`
	// Machine context from the bench header, so a trajectory entry is
	// comparable only against runs it actually matches.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS every result line ran under, read from the
	// -N suffix testing appends to benchmark names (no suffix means 1).
	// 0 when the lines disagree (a -cpu list) or the record predates the
	// field.
	Procs int `json:"procs,omitempty"`

	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one result line: a (sub-)benchmark and its per-op numbers.
type Benchmark struct {
	// Name has the leading "Benchmark" and the -GOMAXPROCS suffix stripped:
	// "10kNodeRelay/queue=wheel".
	Name string `json:"name"`
	Runs int64  `json:"runs"`

	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`

	// Metrics carries every custom b.ReportMetric unit verbatim:
	// "events/sec", "runs/sec", "ns/run", ...
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Parse reads `go test -bench` output and returns a Doc tagged with suite.
// Non-benchmark lines (PASS, ok, test log output) are ignored.
func Parse(r io.Reader, suite string) (*Doc, error) {
	doc := &Doc{Schema: Schema, Suite: suite}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, procs, err := parseLine(line)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: %w in line %q", err, line)
			}
			if len(doc.Benchmarks) == 0 {
				doc.Procs = procs
			} else if procs != doc.Procs {
				doc.Procs = 0
			}
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	return doc, sc.Err()
}

// parseLine decodes one result line:
//
//	BenchmarkName-8  3  219358627 ns/op  416261 events/run  111280680 B/op  86426 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs. It also returns the
// GOMAXPROCS the line ran under.
func parseLine(line string) (Benchmark, int, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, 0, fmt.Errorf("malformed result")
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// Split off the -GOMAXPROCS suffix testing appends when it is not 1, so
	// a benchmark keeps one name across hosts.
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, 0, fmt.Errorf("bad iteration count %q", f[1])
	}
	b := Benchmark{Name: name, Runs: runs}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, 0, fmt.Errorf("bad value %q", f[i])
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, procs, nil
}

// Load reads a Doc previously written by cmd/benchjson.
func Load(path string) (*Doc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: %s: schema %q, want %q", path, doc.Schema, Schema)
	}
	return &doc, nil
}

// Delta is one compared dimension of one benchmark. Delta is the relative
// change versus the baseline: +0.20 means 20% worse (slower, more allocs,
// more bytes).
type Delta struct {
	Name      string
	Dimension string // "time", "allocs", "bytes", or "events/run" when Stale
	Base      float64
	Current   float64
	Delta     float64
	Missing   bool // baseline benchmark absent from the current run
	// Unrecorded marks a benchmark the current run produced that the
	// baseline lacks: nothing guards it until it is recorded.
	Unrecorded bool
	// Stale marks a changed workload: both runs report events/run and the
	// values differ, so time and allocs are not comparable and the
	// baseline needs re-recording. Base and Current hold the two values.
	Stale bool
}

// workloadMetric is the custom metric that identifies a benchmark's
// workload: two runs of the same workload dispatch the same events.
const workloadMetric = "events/run"

// Compare diffs current against base on the regression-relevant dimensions.
// A benchmark only one side has is flagged: a baseline entry missing from
// current (Missing), so a silently deleted benchmark cannot hide a
// regression, and a current entry the baseline lacks (Unrecorded), so a new
// or renamed benchmark cannot run unguarded. A benchmark whose workload
// changed yields one Stale delta instead of time, allocs and bytes deltas.
// The allocs and bytes deltas of a baseline recorded at 0 allocs/op or
// 0 B/op are +Inf once the run allocates. The threshold is not applied
// here — every delta is returned and the caller picks severity.
func Compare(base, current *Doc, threshold float64) []Delta {
	cur := map[string]Benchmark{}
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	recorded := map[string]bool{}
	var out []Delta
	for _, bb := range base.Benchmarks {
		recorded[bb.Name] = true
		cb, ok := cur[bb.Name]
		if !ok {
			out = append(out, Delta{Name: bb.Name, Missing: true})
			continue
		}
		be, bok := bb.Metrics[workloadMetric]
		ce, cok := cb.Metrics[workloadMetric]
		if bok && cok && be != ce {
			out = append(out, Delta{
				Name: bb.Name, Dimension: workloadMetric,
				Base: be, Current: ce, Delta: ce/be - 1, Stale: true,
			})
			continue
		}
		if bb.NsPerOp > 0 {
			out = append(out, Delta{
				Name: bb.Name, Dimension: "time",
				Base: bb.NsPerOp, Current: cb.NsPerOp,
				Delta: cb.NsPerOp/bb.NsPerOp - 1,
			})
		}
		out = append(out, Delta{
			Name: bb.Name, Dimension: "allocs",
			Base: bb.AllocsPerOp, Current: cb.AllocsPerOp,
			Delta: relDelta(bb.AllocsPerOp, cb.AllocsPerOp),
		}, Delta{
			Name: bb.Name, Dimension: "bytes",
			Base: bb.BytesPerOp, Current: cb.BytesPerOp,
			Delta: relDelta(bb.BytesPerOp, cb.BytesPerOp),
		})
	}
	for _, cb := range current.Benchmarks {
		if !recorded[cb.Name] {
			out = append(out, Delta{Name: cb.Name, Unrecorded: true})
		}
	}
	return out
}

// relDelta is cur's change relative to base: 0 when both are 0, +Inf when
// only base is.
func relDelta(base, cur float64) float64 {
	switch {
	case base != 0:
		return cur/base - 1
	case cur != 0:
		return math.Inf(1)
	}
	return 0
}
