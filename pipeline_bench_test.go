// Benchmarks gated as CI's pipeline suite (BENCH_pipeline.json), each for
// a path that every trace or every logged entry takes:
//
//   - PipelineStreaming1M: the k-way merge and single-pass analysis of a
//     4-node, 1M-entry synthetic trace, end to end.
//   - MergeKWayOnly: the merge alone.
//   - DecodeBatch: decoding one log from its 12-byte frames, the read path
//     of quanto-trace and trace.MergeReaders.
//   - LogEntry, TraceCodec and MeterRead: the tracker's log call, one
//     entry's encode and decode, and an iCount read. None allocates, and
//     the gate fails on the first allocation.
//
// TestPipelinesAgree pins the streaming path to two reconstructions of the
// seed repository's data path: a concat+sort merge with materialized
// per-node slices, and the same plus the seed's map-copying interval pass.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/icount"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
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

// runStreamingPipeline is the streaming path: k-way heap merge over
// per-node iterators, demuxed into per-node single-pass analyzers. No
// []core.Entry is materialized beyond the inputs.
func runStreamingPipeline(tb testing.TB, logs []trace.NodeLog) float64 {
	streams := make([]trace.Stream, len(logs))
	for i, l := range logs {
		streams[i] = trace.Stream{Node: l.Node, Source: trace.NewSliceSource(l.Entries)}
	}
	m, err := trace.NewMerger(streams)
	if err != nil {
		tb.Fatal(err)
	}
	dict := core.NewDictionary()
	na := analysis.NewNetworkAnalyzer(dict, analysis.DefaultOptions(), 8.33, 3.0)
	for {
		s, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		na.Consume(s)
	}
	net, err := na.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	total := net.TotalEnergyUJ()
	for _, uj := range net.EnergyByActivity() {
		total += uj * 0 // breakdown runs; totals already counted
	}
	return total
}

// concatSort is the seed's merge: every node's log concatenated into one
// slice and stable-sorted by time, then node.
func concatSort(logs []trace.NodeLog) []trace.Stamped {
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
	return merged
}

// runConcatSortBaseline reproduces the seed's data path: the concat+sort
// merge, split back per node, then analysis of the materialized slices.
func runConcatSortBaseline(tb testing.TB, logs []trace.NodeLog) float64 {
	dict := core.NewDictionary()
	var sum float64
	var analyses []*analysis.Analysis
	for _, l := range trace.SplitByNode(concatSort(logs)) {
		tr := analysis.NewNodeTrace(l.Node, l.Entries, 8.33, 3.0)
		a, err := analysis.Analyze(tr, dict, analysis.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	net := analysis.NewNetwork(dict, analyses...)
	for _, uj := range net.EnergyByActivity() {
		sum += uj * 0 // breakdown runs; totals already counted
	}
	return sum + net.TotalEnergyUJ()
}

// seedStateIntervals is the seed repo's StateIntervals pass: it copies and
// re-fingerprints the state map for every interval, and gives every
// interval a vector of its own.
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
func runSeedPath(tb testing.TB, logs []trace.NodeLog) float64 {
	dict := core.NewDictionary()
	var sum float64
	var analyses []*analysis.Analysis
	for _, l := range trace.SplitByNode(concatSort(logs)) {
		tr := analysis.NewNodeTrace(l.Node, l.Entries, 8.33, 3.0)
		ivs, vecs := seedStateIntervals(tr)
		reg, regErr := analysis.RunRegression(ivs, vecs, tr.PulseUJ, analysis.DefaultOptions())
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

// TestPipelinesAgree pins the streaming pipeline to the seed path's result
// on a smaller instance of the same workload.
func TestPipelinesAgree(t *testing.T) {
	logs := synthNodeLogs(benchNodes, 5_000)
	got := runStreamingPipeline(t, logs)
	want := runConcatSortBaseline(t, logs)
	seed := runSeedPath(t, logs)
	if diff := got - want; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("streaming total %g != baseline total %g", got, want)
	}
	if diff := got - seed; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("streaming total %g != seed-path total %g", got, seed)
	}
}

// BenchmarkMergeKWayOnly isolates the merge itself, without analysis.
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

// BenchmarkDecodeBatch measures batched decode throughput of one node's log.
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

// BenchmarkLogEntry measures the Go-side cost of the logging fast path (the
// mote-side cost is the modeled 102 cycles).
func BenchmarkLogEntry(b *testing.B) {
	clock := fixedClock(7)
	meter := fixedMeter(9)
	sink := core.NewCounterSink()
	trk := core.NewTracker(core.Config{Node: 1, Clock: clock, Meter: meter, Sink: sink})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trk.Log(core.EntryPowerState, power.ResLED0, uint16(i&1))
	}
}

type fixedClock uint32

func (c fixedClock) NowMicros() uint32 { return uint32(c) }

type fixedMeter uint32

func (m fixedMeter) ReadPulses() uint32 { return uint32(m) }

// BenchmarkTraceCodec measures entry encode+decode throughput.
func BenchmarkTraceCodec(b *testing.B) {
	e := core.Entry{Type: core.EntryPowerState, Res: 3, Time: 123456, IC: 789, Val: 1}
	var buf [trace.EntrySize]byte
	b.SetBytes(trace.EntrySize)
	for i := 0; i < b.N; i++ {
		trace.Encode(buf[:], e)
		if _, err := trace.Decode(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeterRead measures the iCount read path.
func BenchmarkMeterRead(b *testing.B) {
	now := units.Ticks(0)
	m := icount.New(3.0, func() units.Ticks { return now })
	m.CurrentChanged(0, 5000)
	for i := 0; i < b.N; i++ {
		now += 10
		_ = m.ReadPulses()
	}
}
