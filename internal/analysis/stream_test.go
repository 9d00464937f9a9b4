package analysis

import (
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestStreamAnalyzerMatchesSliceAnalyze feeds the same log entry-at-a-time
// through the streaming analyzer and checks every derived quantity against
// the slice-based entry point.
func TestStreamAnalyzerMatchesSliceAnalyze(t *testing.T) {
	b := buildTwoSinkTrace()
	tr := b.trace()
	dict := core.NewDictionary()

	want, err := Analyze(tr, dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	sa := NewStreamAnalyzer(1, b.pulseUJ, 3.0, dict, DefaultOptions())
	for _, e := range b.entries {
		sa.Record(e)
	}
	got, err := sa.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if got.Span() != want.Span() {
		t.Errorf("Span = %d, want %d", got.Span(), want.Span())
	}
	if got.TotalEnergyUJ() != want.TotalEnergyUJ() {
		t.Errorf("TotalEnergyUJ = %g, want %g", got.TotalEnergyUJ(), want.TotalEnergyUJ())
	}
	if len(got.Intervals) != len(want.Intervals) {
		t.Fatalf("intervals = %d, want %d", len(got.Intervals), len(want.Intervals))
	}
	for p, mw := range want.Reg.PowerMW {
		if math.Abs(got.Reg.PowerMW[p]-mw) > 1e-9 {
			t.Errorf("PowerMW[%v] = %g, want %g", p, got.Reg.PowerMW[p], mw)
		}
	}
	if math.Abs(got.Reg.ConstMW-want.Reg.ConstMW) > 1e-9 {
		t.Errorf("ConstMW = %g, want %g", got.Reg.ConstMW, want.Reg.ConstMW)
	}
	wantEnergy := want.EnergyByActivity()
	for l, uj := range got.EnergyByActivity() {
		if math.Abs(uj-wantEnergy[l]) > 1e-9 {
			t.Errorf("EnergyByActivity[%v] = %g, want %g", l, uj, wantEnergy[l])
		}
	}
}

// TestStreamAnalyzerBatchEqualsSingle checks the two sink paths agree.
func TestStreamAnalyzerBatchEqualsSingle(t *testing.T) {
	b := buildTwoSinkTrace()
	dict := core.NewDictionary()

	one := NewStreamAnalyzer(1, b.pulseUJ, 3.0, dict, DefaultOptions())
	for _, e := range b.entries {
		one.Record(e)
	}
	batch := NewStreamAnalyzer(1, b.pulseUJ, 3.0, dict, DefaultOptions())
	batch.RecordBatch(b.entries)

	ar, err := one.Finish()
	if err != nil {
		t.Fatal(err)
	}
	br, err := batch.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if ar.Span() != br.Span() || ar.TotalEnergyUJ() != br.TotalEnergyUJ() ||
		len(ar.Intervals) != len(br.Intervals) {
		t.Errorf("single and batch paths diverge: span %d/%d energy %g/%g intervals %d/%d",
			ar.Span(), br.Span(), ar.TotalEnergyUJ(), br.TotalEnergyUJ(),
			len(ar.Intervals), len(br.Intervals))
	}
}

func TestStreamAnalyzerTooFewEntries(t *testing.T) {
	sa := NewStreamAnalyzer(1, 8.33, 3.0, core.NewDictionary(), DefaultOptions())
	sa.Record(core.Entry{Type: core.EntryMarker})
	if _, err := sa.Finish(); err == nil {
		t.Error("one entry should not analyze")
	}
}

// TestStreamAnalyzerUnwrapsTimestamps checks the span is computed across a
// 32-bit clock wrap.
func TestStreamAnalyzerUnwrapsTimestamps(t *testing.T) {
	sa := NewStreamAnalyzer(1, 8.33, 3.0, core.NewDictionary(), DefaultOptions())
	sa.Record(core.Entry{Type: core.EntryMarker, Time: 0xFFFF_FF00, IC: 0})
	sa.Record(core.Entry{Type: core.EntryMarker, Time: 0x100, IC: 10})
	a, err := sa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantSpan := int64(1<<32+0x100) - int64(0xFFFF_FF00)
	if a.Span() != wantSpan {
		t.Errorf("Span = %d, want %d", a.Span(), wantSpan)
	}
	if a.TotalPulses != 10 {
		t.Errorf("TotalPulses = %d", a.TotalPulses)
	}
}

// TestNetworkAnalyzerMatchesPerNodeAnalyses demuxes a merged two-node
// stream and checks the aggregate equals per-node slice analysis.
func TestNetworkAnalyzerMatchesPerNodeAnalyses(t *testing.T) {
	dict := core.NewDictionary()
	b1 := buildTwoSinkTrace()
	b2 := buildTwoSinkTrace()

	// Per-node slice path.
	a1, err := Analyze(NewNodeTrace(1, b1.entries, b1.pulseUJ, 3.0), dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(NewNodeTrace(2, b2.entries, b2.pulseUJ, 3.0), dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := NewNetwork(dict, a1, a2)

	// Streaming path over the merged stream.
	na := NewNetworkAnalyzer(dict, DefaultOptions(), b1.pulseUJ, 3.0)
	m, err := trace.NewMerger([]trace.Stream{
		{Node: 1, Source: trace.NewSliceSource(b1.entries)},
		{Node: 2, Source: trace.NewSliceSource(b2.entries)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		s, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		na.Consume(s)
	}
	got, err := na.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Nodes) != 2 {
		t.Fatalf("network has %d nodes", len(got.Nodes))
	}
	if math.Abs(got.TotalEnergyUJ()-want.TotalEnergyUJ()) > 1e-9 {
		t.Errorf("TotalEnergyUJ = %g, want %g", got.TotalEnergyUJ(), want.TotalEnergyUJ())
	}
	wantByAct := want.EnergyByActivity()
	for l, uj := range got.EnergyByActivity() {
		if math.Abs(uj-wantByAct[l]) > 1e-9 {
			t.Errorf("EnergyByActivity[%v] = %g, want %g", l, uj, wantByAct[l])
		}
	}
}

// TestNetworkAnalyzerFinishNamesLowestNode checks that Finish reports the
// lowest failing node, whatever order the nodes were first seen in.
func TestNetworkAnalyzerFinishNamesLowestNode(t *testing.T) {
	for run := 0; run < 50; run++ {
		na := NewNetworkAnalyzer(core.NewDictionary(), DefaultOptions(), 8.33, 3.0)
		for node := core.NodeID(8); node >= 1; node-- {
			na.Consume(trace.Stamped{Node: node, Entry: core.Entry{Type: core.EntryMarker}})
		}
		_, err := na.Finish()
		if err == nil || !strings.HasPrefix(err.Error(), "node 1: ") {
			t.Fatalf("run %d: err = %v, want node 1's", run, err)
		}
	}
}

// TestStreamAnalyzerSteadyStateAllocs feeds a warmed analyzer a repeating
// cycle of CPU activity changes (including a proxy episode and a bind),
// radio listen/unlisten on a multi-activity resource, and LED and radio
// power states. Once every vector, label set and transition has been seen,
// the only allocations left are the geometric growth of the interval and
// segment slices.
func TestStreamAnalyzerSteadyStateAllocs(t *testing.T) {
	const (
		cpu, radio, rx, led core.ResourceID = 0, 8, 11, 14
		entriesPerRun                       = 1000
	)
	dict := core.NewDictionary()
	idle, app, timer := core.MkLabel(1, 0), core.MkLabel(1, 2), core.MkLabel(1, 3)
	proxy := core.MkLabel(1, 9)
	dict.MarkProxy(proxy)
	cycle := []core.Entry{
		{Type: core.EntryActivitySet, Res: cpu, Val: uint16(proxy)},
		{Type: core.EntryPowerState, Res: cpu, Val: 1},
		{Type: core.EntryActivityBind, Res: cpu, Val: uint16(app)},
		{Type: core.EntryPowerState, Res: led, Val: 1},
		{Type: core.EntryPowerState, Res: radio, Val: 1},
		{Type: core.EntryActivityAdd, Res: rx, Val: uint16(app)},
		{Type: core.EntryActivityAdd, Res: rx, Val: uint16(timer)},
		{Type: core.EntryActivitySet, Res: cpu, Val: uint16(timer)},
		{Type: core.EntryActivityRemove, Res: rx, Val: uint16(app)},
		{Type: core.EntryActivityRemove, Res: rx, Val: uint16(timer)},
		{Type: core.EntryPowerState, Res: radio, Val: 0},
		{Type: core.EntryPowerState, Res: led, Val: 0},
		{Type: core.EntryActivitySet, Res: cpu, Val: uint16(idle)},
		{Type: core.EntryPowerState, Res: cpu, Val: 0},
	}
	sa := NewStreamAnalyzer(1, 8.33, 3.0, dict, DefaultOptions())
	var now, ic uint32
	i := 0
	feed := func(n int) {
		for range n {
			e := cycle[i%len(cycle)]
			now += 1 + uint32(i%3)*50 // every third entry shares a microsecond
			ic += uint32(i % 2)
			e.Time, e.IC = now, ic
			sa.Record(e)
			i++
		}
	}
	feed(100 * len(cycle))
	perRun := testing.AllocsPerRun(100, func() { feed(entriesPerRun) })
	t.Logf("%.0f allocations per %d entries", perRun, entriesPerRun)
	if perEntry := perRun / entriesPerRun; perEntry >= 0.01 {
		t.Errorf("steady state allocates %.4f times per entry (%.0f per %d entries), want < 0.01",
			perEntry, perRun, entriesPerRun)
	}
	if _, err := sa.Finish(); err != nil {
		t.Fatal(err)
	}
}

// tieLog is one node's log in which activity 1 holds resA and activity 2
// holds resB; built for origin o, it is the same log under node o's labels.
func tieLog(o core.NodeID) []core.Entry {
	b := newTraceBuilder()
	b.draw(resA, 1, 3000)
	b.draw(resB, 1, 1500)
	b.ps(resA, 0)
	b.ps(resB, 0)
	idle := core.MkLabel(o, core.ActIdle)
	for range 4 {
		b.advance(500_000)
		b.act(core.EntryActivitySet, resA, core.MkLabel(o, 1))
		b.ps(resA, 1)
		b.advance(500_000)
		b.act(core.EntryActivitySet, resB, core.MkLabel(o, 2))
		b.ps(resB, 1)
		b.advance(500_000)
		b.act(core.EntryActivitySet, resA, idle)
		b.ps(resA, 0)
		b.advance(500_000)
		b.act(core.EntryActivitySet, resB, idle)
		b.ps(resB, 0)
	}
	b.advance(500_000)
	b.marker()
	return b.entries
}

// TestNetworkReportTieOrder runs one log on two nodes under their own
// origins, so 1:Sense and 2:Sense (and 1:Send and 2:Send) spend exactly the
// same energy. Report must not print them in map order: 50 calls give the
// same bytes, with tied labels in label order.
func TestNetworkReportTieOrder(t *testing.T) {
	dict := core.NewDictionary()
	var nodes []*Analysis
	for _, id := range []core.NodeID{1, 2} {
		dict.NameActivity(id, 1, "Sense")
		dict.NameActivity(id, 2, "Send")
		a, err := Analyze(NewNodeTrace(id, tieLog(id), 8.33, 3.0), dict, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, a)
	}
	net := NewNetwork(dict, nodes...)
	by := net.EnergyByActivity()
	for id := core.ActivityID(1); id <= 2; id++ {
		if e1, e2 := by[core.MkLabel(1, id)], by[core.MkLabel(2, id)]; e1 != e2 || e1 <= 0 {
			t.Fatalf("activity %d: %g uJ on node 1, %g on node 2; want an exact, non-zero tie", id, e1, e2)
		}
	}
	want := net.Report()
	for i := range 50 {
		if got := net.Report(); got != want {
			t.Fatalf("call %d printed\n%s\nfirst call printed\n%s", i, got, want)
		}
	}
	for _, name := range []string{"Sense ", "Send "} {
		if i, j := strings.Index(want, "1:"+name), strings.Index(want, "2:"+name); i < 0 || j < 0 || i > j {
			t.Errorf("tied rows for %q out of label order:\n%s", name, want)
		}
	}
}
