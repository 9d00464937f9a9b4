// Benchmarks for the streaming event pipeline: k-way trace merge, batched
// codec throughput, sink fan-out, and end-to-end single-pass analysis.
//
// The headline pair is BenchmarkPipelineStreaming1M vs
// BenchmarkPipelineConcatSortBaseline1M: both merge the same 4-node,
// ~1M-entry synthetic trace and run the same analysis (a full breakdown per
// node), but the streaming path goes through the O(N log
// k) heap merge and feeds analysis incrementally, while the baseline
// reproduces the seed's concat+sort.SliceStable merge and materialized
// per-node slices.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/trace"
)

// synthNodeLogs builds a deterministic 4-node workload that looks like a
// real Quanto log: interleaved power-state toggles on a few resources,
// activity hand-offs on the CPU, and a monotone energy counter.
func synthNodeLogs(nodes, perNode int) []trace.NodeLog {
	out := make([]trace.NodeLog, nodes)
	for n := 0; n < nodes; n++ {
		rng := uint64(n)*0x9E3779B97F4A7C15 + 0xDEADBEEF
		next := func(mod uint32) uint32 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return uint32(rng>>33) % mod
		}
		entries := make([]core.Entry, perNode)
		var now, ic uint32
		for i := range entries {
			now += 5 + next(40)
			ic += next(3)
			switch next(4) {
			case 0:
				entries[i] = core.Entry{
					Type: core.EntryActivitySet, Res: 0, Time: now, IC: ic,
					Val: uint16(core.MkLabel(core.NodeID(n+1), core.ActivityID(1+next(6)))),
				}
			default:
				res := core.ResourceID(3 + next(3))
				entries[i] = core.Entry{
					Type: core.EntryPowerState, Res: res, Time: now, IC: ic,
					Val: uint16(next(2)),
				}
			}
		}
		out[n] = trace.NodeLog{Node: core.NodeID(n + 1), Entries: entries}
	}
	return out
}

const (
	benchNodes   = 4
	benchPerNode = 250_000
)

// runStreamingPipeline is the new path: k-way heap merge over per-node
// iterators, demuxed into per-node single-pass analyzers. No []core.Entry is
// materialized beyond the inputs.
func runStreamingPipeline(b *testing.B, logs []trace.NodeLog) float64 {
	streams := make([]trace.Stream, len(logs))
	for i, l := range logs {
		streams[i] = trace.Stream{Node: l.Node, Source: trace.NewSliceSource(l.Entries)}
	}
	m, err := trace.NewMerger(streams)
	if err != nil {
		b.Fatal(err)
	}
	dict := core.NewDictionary()
	na := analysis.NewNetworkAnalyzer(dict, analysis.DefaultOptions(), 8.33, 3.0)
	for {
		s, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		na.Consume(s)
	}
	net, err := na.Finish()
	if err != nil {
		b.Fatal(err)
	}
	total := net.TotalEnergyUJ()
	for _, uj := range net.EnergyByActivity() {
		total += uj * 0 // breakdown runs; totals already counted
	}
	return total
}

// runConcatSortBaseline reproduces the seed's data path: concatenate every
// node's log into one slice, stable-sort it, split it back per node, then
// analyze the materialized slices.
func runConcatSortBaseline(b *testing.B, logs []trace.NodeLog) float64 {
	total := 0
	for _, l := range logs {
		total += len(l.Entries)
	}
	merged := make([]trace.Stamped, 0, total)
	for _, l := range logs {
		for _, e := range l.Entries {
			merged = append(merged, trace.Stamped{Node: l.Node, Entry: e})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Time != merged[j].Time {
			return merged[i].Time < merged[j].Time
		}
		return merged[i].Node < merged[j].Node
	})
	dict := core.NewDictionary()
	var sum float64
	var analyses []*analysis.Analysis
	for _, l := range trace.SplitByNode(merged) {
		tr := analysis.NewNodeTrace(l.Node, l.Entries, 8.33, 3.0)
		a, err := analysis.Analyze(tr, dict, analysis.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	net := analysis.NewNetwork(dict, analyses...)
	for _, uj := range net.EnergyByActivity() {
		sum += uj * 0 // breakdown runs; totals already counted
	}
	return sum + net.TotalEnergyUJ()
}

// seedStateIntervals is the seed repo's StateIntervals pass, kept as the
// benchmark baseline: it copies and re-fingerprints the state map for every
// interval, and gives every interval a vector of its own.
func seedStateIntervals(tr *analysis.NodeTrace) ([]analysis.StateInterval, []analysis.StateVector) {
	states := make(map[core.ResourceID]core.PowerState)
	var out []analysis.StateInterval
	var vecs []analysis.StateVector
	var carryPulses uint32

	snapshot := func() analysis.StateVector {
		cp := make(map[core.ResourceID]core.PowerState, len(states))
		keys := make([]int, 0, len(states))
		for r, s := range states {
			cp[r] = s
			if s != 0 {
				keys = append(keys, int(r))
			}
		}
		sort.Ints(keys)
		key := ""
		var active []analysis.Predictor
		for _, r := range keys {
			key += fmt.Sprintf("%d=%d;", r, cp[core.ResourceID(r)])
			active = append(active, analysis.Predictor{Res: core.ResourceID(r), State: cp[core.ResourceID(r)]})
		}
		return analysis.StateVector{Key: key, Active: active}
	}

	for i := 0; i+1 < len(tr.Entries); i++ {
		e := tr.Entries[i]
		if e.Type == core.EntryPowerState {
			states[e.Res] = e.State()
		}
		start, end := tr.Times[i], tr.Times[i+1]
		pulses := tr.Entries[i+1].IC - e.IC
		if end == start {
			carryPulses += pulses
			continue
		}
		vecs = append(vecs, snapshot())
		out = append(out, analysis.StateInterval{
			Start: start, End: end, Pulses: pulses + carryPulses,
			Vec: uint32(len(vecs) - 1),
		})
		carryPulses = 0
	}
	return out, vecs
}

// runSeedPath reproduces the seed repo's data path end to end: concat+sort
// merge, materialized per-node slices with unwrapped time arrays, the seed's
// map-copying interval pass, then regression, timelines and breakdown — the
// same analysis products the streaming path emits.
func runSeedPath(b *testing.B, logs []trace.NodeLog) float64 {
	total := 0
	for _, l := range logs {
		total += len(l.Entries)
	}
	merged := make([]trace.Stamped, 0, total)
	for _, l := range logs {
		for _, e := range l.Entries {
			merged = append(merged, trace.Stamped{Node: l.Node, Entry: e})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Time != merged[j].Time {
			return merged[i].Time < merged[j].Time
		}
		return merged[i].Node < merged[j].Node
	})
	dict := core.NewDictionary()
	var sum float64
	var analyses []*analysis.Analysis
	for _, l := range trace.SplitByNode(merged) {
		tr := analysis.NewNodeTrace(l.Node, l.Entries, 8.33, 3.0)
		ivs, vecs := seedStateIntervals(tr)
		reg, regErr := analysis.RunRegression(ivs, vecs, tr.PulseUJ, analysis.DefaultRegressionOptions())
		if regErr != nil {
			constMW := 0.0
			if span := tr.End() - tr.Start(); span > 0 {
				constMW = tr.TotalEnergyUJ() / float64(span) * 1000
			}
			reg = &analysis.Regression{PowerMW: make(map[analysis.Predictor]float64), ConstMW: constMW}
		}
		single, multi := analysis.BuildActivityTimelines(tr, dict.IsProxy)
		states := analysis.BuildStateTimelines(tr)
		analyses = append(analyses, &analysis.Analysis{
			Trace: tr, Dict: dict, Opts: analysis.DefaultOptions(),
			StartUS: tr.Start(), EndUS: tr.End(), TotalPulses: tr.TotalPulses(),
			Intervals: ivs, Vectors: vecs, Reg: reg, RegressionErr: regErr,
			Single: single, Multi: multi, States: states,
		})
	}
	net := analysis.NewNetwork(dict, analyses...)
	for _, uj := range net.EnergyByActivity() {
		sum += uj * 0 // breakdown runs; totals already counted
	}
	return sum + net.TotalEnergyUJ()
}

func BenchmarkPipelineSeedPath1M(b *testing.B) {
	logs := synthNodeLogs(benchNodes, benchPerNode)
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		total = runSeedPath(b, logs)
	}
	if total <= 0 {
		b.Fatal("no energy accounted")
	}
	b.ReportMetric(float64(benchNodes*benchPerNode)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

func BenchmarkPipelineStreaming1M(b *testing.B) {
	logs := synthNodeLogs(benchNodes, benchPerNode)
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		total = runStreamingPipeline(b, logs)
	}
	if total <= 0 {
		b.Fatal("no energy accounted")
	}
	b.ReportMetric(float64(benchNodes*benchPerNode)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

func BenchmarkPipelineConcatSortBaseline1M(b *testing.B) {
	logs := synthNodeLogs(benchNodes, benchPerNode)
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		total = runConcatSortBaseline(b, logs)
	}
	if total <= 0 {
		b.Fatal("no energy accounted")
	}
	b.ReportMetric(float64(benchNodes*benchPerNode)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// TestPipelinesAgree pins the streaming pipeline to the seed path's result
// on a smaller instance of the same workload.
func TestPipelinesAgree(t *testing.T) {
	logs := synthNodeLogs(benchNodes, 5_000)
	var b testing.B
	got := runStreamingPipeline(&b, logs)
	want := runConcatSortBaseline(&b, logs)
	seed := runSeedPath(&b, logs)
	if diff := got - want; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("streaming total %g != baseline total %g", got, want)
	}
	if diff := got - seed; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("streaming total %g != seed-path total %g", got, seed)
	}
}

// BenchmarkMergeKWayOnly isolates the merge itself (no analysis) for a
// direct comparison with BenchmarkMergeConcatSortOnly.
func BenchmarkMergeKWayOnly(b *testing.B) {
	logs := synthNodeLogs(benchNodes, benchPerNode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]trace.Stream, len(logs))
		for j, l := range logs {
			streams[j] = trace.Stream{Node: l.Node, Source: trace.NewSliceSource(l.Entries)}
		}
		m, err := trace.NewMerger(streams)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := m.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != benchNodes*benchPerNode {
			b.Fatalf("merged %d entries", n)
		}
	}
	b.ReportMetric(float64(benchNodes*benchPerNode)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

func BenchmarkMergeConcatSortOnly(b *testing.B) {
	logs := synthNodeLogs(benchNodes, benchPerNode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, l := range logs {
			total += len(l.Entries)
		}
		merged := make([]trace.Stamped, 0, total)
		for _, l := range logs {
			for _, e := range l.Entries {
				merged = append(merged, trace.Stamped{Node: l.Node, Entry: e})
			}
		}
		sort.SliceStable(merged, func(i, j int) bool {
			if merged[i].Time != merged[j].Time {
				return merged[i].Time < merged[j].Time
			}
			return merged[i].Node < merged[j].Node
		})
		if len(merged) != benchNodes*benchPerNode {
			b.Fatalf("merged %d entries", len(merged))
		}
	}
	b.ReportMetric(float64(benchNodes*benchPerNode)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkMergeReadersConcurrent measures the full decode+merge path from
// encoded bytes, with per-node decoding running concurrently.
func BenchmarkMergeReadersConcurrent(b *testing.B) {
	logs := synthNodeLogs(benchNodes, benchPerNode/4)
	encoded := make([][]byte, len(logs))
	totalBytes := 0
	for i, l := range logs {
		encoded[i] = trace.Marshal(l.Entries)
		totalBytes += len(encoded[i])
	}
	b.SetBytes(int64(totalBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]trace.ReaderStream, len(logs))
		for j := range logs {
			streams[j] = trace.ReaderStream{Node: logs[j].Node, R: bytes.NewReader(encoded[j])}
		}
		m, err := trace.MergeReaders(streams, 0)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := m.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(logs)*benchPerNode/4 {
			b.Fatalf("merged %d entries", n)
		}
	}
}

// BenchmarkDecodeBatch measures batched decode throughput; compare with
// BenchmarkDecodeEntry for the per-entry interface cost the batch path
// eliminates.
func BenchmarkDecodeBatch(b *testing.B) {
	logs := synthNodeLogs(1, benchPerNode)
	data := trace.Marshal(logs[0].Entries)
	buf := make([]core.Entry, trace.DefaultBatchEntries)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := trace.NewReader(bytes.NewReader(data))
		n := 0
		for {
			k, err := r.ReadBatch(buf)
			n += k
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if n != len(logs[0].Entries) {
			b.Fatalf("decoded %d entries", n)
		}
	}
}

func BenchmarkDecodeEntry(b *testing.B) {
	logs := synthNodeLogs(1, benchPerNode)
	data := trace.Marshal(logs[0].Entries)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := trace.NewReader(bytes.NewReader(data))
		n := 0
		for {
			if _, err := r.Read(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(logs[0].Entries) {
			b.Fatalf("decoded %d entries", n)
		}
	}
}

// BenchmarkFanoutBatch measures a two-way Tee (collector + counter) on the
// batched path vs entry-at-a-time.
func BenchmarkFanoutBatch(b *testing.B) {
	logs := synthNodeLogs(1, benchPerNode)
	entries := logs[0].Entries
	b.SetBytes(int64(len(entries) * core.EntrySize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tee := core.NewTee(core.NewCollector(), core.NewCounterSink())
		if kept := tee.RecordBatch(entries); kept != len(entries) {
			b.Fatalf("kept %d", kept)
		}
	}
}

func BenchmarkFanoutSingle(b *testing.B) {
	logs := synthNodeLogs(1, benchPerNode)
	entries := logs[0].Entries
	b.SetBytes(int64(len(entries) * core.EntrySize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tee := core.NewTee(core.NewCollector(), core.NewCounterSink())
		for _, e := range entries {
			tee.Record(e)
		}
	}
}
