package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
Benchmark10kNodeRelay/queue=wheel         	       3	 219358627 ns/op	    416261 events/run	   1897630 events/sec	111280680 B/op	   86426 allocs/op
Benchmark10kNodeRelay/queue=heap          	       3	 496991374 ns/op	    416261 events/run	    837562 events/sec	196568520 B/op	  974841 allocs/op
BenchmarkSweepThroughput/workers=4-8      	       2	  51234567 ns/op	    800432 ns/run	      1249 runs/sec
PASS
ok  	repro	6.552s
`

func parseSample(t *testing.T) *Doc {
	t.Helper()
	doc, err := Parse(strings.NewReader(sample), "core")
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParse(t *testing.T) {
	doc := parseSample(t)
	if doc.Schema != Schema || doc.Suite != "core" {
		t.Fatalf("header = %q/%q", doc.Schema, doc.Suite)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "repro" {
		t.Fatalf("machine context = %q/%q/%q", doc.Goos, doc.Goarch, doc.Pkg)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(doc.Benchmarks))
	}
	wheel := doc.Benchmarks[0]
	if wheel.Name != "10kNodeRelay/queue=wheel" || wheel.Runs != 3 {
		t.Fatalf("wheel = %+v", wheel)
	}
	if wheel.NsPerOp != 219358627 || wheel.AllocsPerOp != 86426 || wheel.BytesPerOp != 111280680 {
		t.Fatalf("wheel numbers = %+v", wheel)
	}
	if wheel.Metrics["events/sec"] != 1897630 || wheel.Metrics["events/run"] != 416261 {
		t.Fatalf("wheel metrics = %v", wheel.Metrics)
	}
	// The -8 GOMAXPROCS suffix must strip, custom units must survive.
	sweep := doc.Benchmarks[2]
	if sweep.Name != "SweepThroughput/workers=4" {
		t.Fatalf("sweep name = %q", sweep.Name)
	}
	if sweep.Metrics["runs/sec"] != 1249 {
		t.Fatalf("sweep metrics = %v", sweep.Metrics)
	}
}

func TestCompare(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	// Unchanged run: every delta ~0, nothing missing.
	for _, d := range Compare(base, cur, 0.15) {
		if d.Missing || d.Delta != 0 {
			t.Fatalf("self-compare delta = %+v", d)
		}
	}

	// Regress the wheel benchmark 30% in time and 2x in allocs.
	cur.Benchmarks[0].NsPerOp *= 1.30
	cur.Benchmarks[0].AllocsPerOp *= 2
	// Drop the sweep benchmark entirely.
	cur.Benchmarks = cur.Benchmarks[:2]

	got := map[string]Delta{}
	for _, d := range Compare(base, cur, 0.15) {
		got[d.Name+"/"+d.Dimension] = d
	}
	if d := got["10kNodeRelay/queue=wheel/time"]; d.Delta < 0.29 || d.Delta > 0.31 {
		t.Fatalf("time delta = %+v", d)
	}
	if d := got["10kNodeRelay/queue=wheel/allocs"]; d.Delta < 0.99 || d.Delta > 1.01 {
		t.Fatalf("allocs delta = %+v", d)
	}
	if d := got["SweepThroughput/workers=4/"]; !d.Missing {
		t.Fatalf("missing benchmark not flagged: %+v", got)
	}
}

// staleRecord is the core suite's record before its re-recording, and
// staleRun a fresh run of the same benchmarks after the RGG placement moved:
// events/run grew from 416261 to 655001, so allocs/op read +48% (wheel) and
// +54% (heap) though allocations per event fell.
const staleRecord = `Benchmark10kNodeRelay/queue=wheel 3 318569234 ns/op 416261 events/run 1306659 events/sec 111600664 B/op 86427 allocs/op
Benchmark10kNodeRelay/queue=heap 3 664257452 ns/op 416261 events/run 626656 events/sec 211103144 B/op 974842 allocs/op
`

const staleRun = `Benchmark10kNodeRelay/queue=wheel-2 3 672687466 ns/op 655001 events/run 973708 events/sec 183451800 B/op 128178 allocs/op
Benchmark10kNodeRelay/queue=heap-2 3 1185363751 ns/op 655001 events/run 552574 events/sec 337594637 B/op 1504453 allocs/op
`

// TestCompareStaleBaseline: a changed events/run is reported as a stale
// baseline, one finding per benchmark, and never as a time or allocs
// regression.
func TestCompareStaleBaseline(t *testing.T) {
	base, err := Parse(strings.NewReader(staleRecord), "core")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Parse(strings.NewReader(staleRun), "core")
	if err != nil {
		t.Fatal(err)
	}
	got := Compare(base, cur, 0.15)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want one per benchmark: %+v", len(got), got)
	}
	for _, d := range got {
		if !d.Stale || d.Dimension != workloadMetric || d.Base != 416261 || d.Current != 655001 {
			t.Errorf("finding = %+v, want stale events/run 416261 -> 655001", d)
		}
	}

	// The same workload with a regression still reports time and allocs.
	cur.Benchmarks[0].Metrics[workloadMetric] = 416261
	for _, d := range Compare(base, cur, 0.15) {
		if d.Name == "10kNodeRelay/queue=wheel" && d.Stale {
			t.Errorf("matching events/run reported stale: %+v", d)
		}
		if d.Name == "10kNodeRelay/queue=wheel" && d.Dimension == "allocs" && d.Delta < 0.48 {
			t.Errorf("allocs delta = %+v, want the +48%% regression", d)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkBad 3 12 ns/op trailing\n"), "x"); err == nil {
		t.Fatal("odd field count accepted")
	}
	if _, err := Parse(strings.NewReader("BenchmarkBad notanumber 12 ns/op\n"), "x"); err == nil {
		t.Fatal("bad iteration count accepted")
	}
}
