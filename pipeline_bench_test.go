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
// TestPipelinesAgree pins the streaming path to two pieces of the seed
// repository's data path, kept here as references: its concat+sort merge
// and its map-copying interval pass.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/icount"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
)

// synthNodeLogs builds a deterministic workload that looks like a real
// Quanto log: interleaved power-state toggles on a few resources, activity
// hand-offs on the CPU, and a monotone energy counter. logs[i] is node
// i+1's log.
func synthNodeLogs(nodes, perNode int) [][]core.Entry {
	out := make([][]core.Entry, nodes)
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
		out[n] = entries
	}
	return out
}

const (
	benchNodes   = 4
	benchPerNode = 250_000
)

// streamNetwork is the streaming path: k-way heap merge over per-node
// iterators, demuxed into per-node single-pass analyzers. No []core.Entry
// is materialized beyond the inputs.
func streamNetwork(tb testing.TB, logs [][]core.Entry) *analysis.Network {
	streams := make([]trace.Stream, len(logs))
	for i, l := range logs {
		streams[i] = trace.Stream{Node: core.NodeID(i + 1), Source: trace.NewSliceSource(l)}
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
	return net
}

// runStreamingPipeline runs the streaming path, whose Finish charges each
// node's breakdown, and sums the breakdowns network-wide.
func runStreamingPipeline(tb testing.TB, logs [][]core.Entry) float64 {
	net := streamNetwork(tb, logs)
	total := net.TotalEnergyUJ()
	for _, uj := range net.EnergyByActivity() {
		total += uj * 0 // the sum runs; totals already counted
	}
	return total
}

// concatSort is the seed's merge: every node's log concatenated into one
// slice and stable-sorted by time, then node.
func concatSort(logs [][]core.Entry) []trace.Stamped {
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	merged := make([]trace.Stamped, 0, total)
	for i, l := range logs {
		for _, e := range l {
			merged = append(merged, trace.Stamped{Node: core.NodeID(i + 1), Entry: e})
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

// seedStateIntervals is the seed repo's StateIntervals pass over one node's
// log: it copies and re-fingerprints the state map for every interval, and
// gives every interval a vector of its own. Each stamp lies its forward
// distance, mod 2^32, past the one before.
func seedStateIntervals(entries []core.Entry) ([]analysis.StateInterval, []analysis.StateVector) {
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

	var end int64
	if len(entries) > 0 {
		end = int64(entries[0].Time)
	}
	for i := 0; i+1 < len(entries); i++ {
		e, next := entries[i], entries[i+1]
		if e.Type == core.EntryPowerState {
			states[e.Res] = e.State()
		}
		start := end
		end += int64(next.Time - e.Time)
		pulses := next.IC - e.IC
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

// TestPipelinesAgree pins the streaming pipeline to the seed's data path on
// a smaller instance of the same workload. The seed's concat+sort merge,
// demultiplexed into the same analyzers, must give every node's energy by
// activity and the network total bit for bit; and the seed's map-copying
// interval pass must give each node exactly the intervals, and the state
// vectors behind them, that its analysis holds.
func TestPipelinesAgree(t *testing.T) {
	logs := synthNodeLogs(benchNodes, 5_000)
	got := streamNetwork(t, logs)

	na := analysis.NewNetworkAnalyzer(core.NewDictionary(), analysis.DefaultOptions(), 8.33, 3.0)
	for _, s := range concatSort(logs) {
		na.Consume(s)
	}
	want, err := na.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.TotalEnergyUJ(), want.TotalEnergyUJ(); g != w || g <= 0 {
		t.Errorf("streaming total %g, concat+sort total %g", g, w)
	}
	for i := range logs {
		id := core.NodeID(i + 1)
		a := got.Nodes[id]
		if g, w := a.EnergyByActivity(), want.Nodes[id].EnergyByActivity(); !maps.Equal(g, w) {
			t.Errorf("node %d: streaming breakdown %v, concat+sort %v", id, g, w)
		}
		ivs, vecs := seedStateIntervals(logs[i])
		if len(ivs) == 0 || len(ivs) != len(a.Intervals) {
			t.Fatalf("node %d: %d intervals, the seed's pass gives %d", id, len(a.Intervals), len(ivs))
		}
		for j, iv := range a.Intervals {
			seed := ivs[j]
			gv, sv := a.Vectors[iv.Vec], vecs[seed.Vec]
			if iv.Start != seed.Start || iv.End != seed.End || iv.Pulses != seed.Pulses ||
				gv.Key != sv.Key || !slices.Equal(gv.Active, sv.Active) {
				t.Fatalf("node %d: interval %d = %+v in %q, the seed's pass gives %+v in %q", id, j, iv, gv.Key, seed, sv.Key)
			}
		}
	}
}

// BenchmarkMergeKWayOnly isolates the merge itself, without analysis.
func BenchmarkMergeKWayOnly(b *testing.B) {
	logs := synthNodeLogs(benchNodes, benchPerNode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]trace.Stream, len(logs))
		for j, l := range logs {
			streams[j] = trace.Stream{Node: core.NodeID(j + 1), Source: trace.NewSliceSource(l)}
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
	data := trace.Marshal(logs[0])
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
		if n != len(logs[0]) {
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
