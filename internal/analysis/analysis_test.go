package analysis

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

// traceBuilder constructs synthetic logs with a simulated meter: current
// draws are registered per (res,state) and pulses accumulate accordingly.
type traceBuilder struct {
	entries []core.Entry
	now     uint32
	accUJ   float64
	pulseUJ float64
	volts   float64
	draws   map[[2]uint16]float64 // (res,state) -> uA
	states  map[core.ResourceID]core.PowerState
}

func newTraceBuilder() *traceBuilder {
	return &traceBuilder{
		pulseUJ: 8.33,
		volts:   3.0,
		draws:   make(map[[2]uint16]float64),
		states:  make(map[core.ResourceID]core.PowerState),
	}
}

func (b *traceBuilder) draw(res core.ResourceID, st core.PowerState, ua float64) {
	b.draws[[2]uint16{uint16(res), uint16(st)}] = ua
}

func (b *traceBuilder) currentUA() float64 {
	var total float64
	for res, st := range b.states {
		total += b.draws[[2]uint16{uint16(res), uint16(st)}]
	}
	return total
}

// advance moves time forward, integrating energy.
func (b *traceBuilder) advance(us uint32) {
	b.accUJ += b.currentUA() * b.volts * float64(us) * 1e-6
	b.now += us
}

func (b *traceBuilder) ic() uint32 { return uint32(b.accUJ / b.pulseUJ) }

func (b *traceBuilder) ps(res core.ResourceID, st core.PowerState) {
	b.entries = append(b.entries, core.Entry{
		Type: core.EntryPowerState, Res: res, Time: b.now, IC: b.ic(), Val: uint16(st),
	})
	b.states[res] = st
}

func (b *traceBuilder) act(typ core.EntryType, res core.ResourceID, l core.Label) {
	b.entries = append(b.entries, core.Entry{Type: typ, Res: res, Time: b.now, IC: b.ic(), Val: uint16(l)})
}

func (b *traceBuilder) marker() {
	b.entries = append(b.entries, core.Entry{Type: core.EntryMarker, Res: 0, Time: b.now, IC: b.ic(), Val: 0xFFFF})
}

// analyze runs the builder's log through a StreamAnalyzer as node 1's.
func (b *traceBuilder) analyze(t *testing.T, dict *core.Dictionary, opts Options) *Analysis {
	t.Helper()
	sa := NewStreamAnalyzer(1, b.pulseUJ, units.Volts(b.volts), dict, opts)
	sa.RecordBatch(b.entries)
	a, err := sa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

const (
	resA core.ResourceID = 10
	resB core.ResourceID = 11
)

// buildTwoSinkTrace alternates two sinks through all four combinations,
// drawing 3000 and 1500 uA, on a 400 uA baseline.
func buildTwoSinkTrace() *traceBuilder {
	b := newTraceBuilder()
	b.draw(resA, 1, 3000)
	b.draw(resB, 1, 1500)
	b.draw(0, 0, 400) // baseline via resource 0 state 0
	b.states[0] = 0
	b.ps(resA, 0)
	b.ps(resB, 0)
	for cycle := 0; cycle < 4; cycle++ {
		b.advance(500_000)
		b.ps(resA, 1)
		b.advance(500_000)
		b.ps(resB, 1)
		b.advance(500_000)
		b.ps(resA, 0)
		b.advance(500_000)
		b.ps(resB, 0)
	}
	b.advance(500_000)
	b.marker()
	return b
}

func TestStateIntervalsPartitionTime(t *testing.T) {
	a := buildTwoSinkTrace().analyze(t, core.NewDictionary(), DefaultOptions())
	ivs := a.Intervals
	if len(ivs) == 0 {
		t.Fatal("no intervals")
	}
	var total int64
	for i, iv := range ivs {
		if iv.End <= iv.Start {
			t.Errorf("interval %d empty", i)
		}
		if i > 0 && iv.Start != ivs[i-1].End {
			t.Errorf("gap between intervals %d and %d", i-1, i)
		}
		total += iv.Duration()
	}
	if total != a.Span() {
		t.Errorf("intervals cover %d us, span is %d", total, a.Span())
	}
}

func TestStateIntervalPulsesSumToTotal(t *testing.T) {
	b := buildTwoSinkTrace()
	a := b.analyze(t, core.NewDictionary(), DefaultOptions())
	var sum uint32
	for _, iv := range a.Intervals {
		sum += iv.Pulses
	}
	if want := b.entries[len(b.entries)-1].IC - b.entries[0].IC; sum != want || a.TotalPulses != want {
		t.Errorf("interval pulses %d, TotalPulses %d; the meter counted %d", sum, a.TotalPulses, want)
	}
}

func TestRegressionRecoversTwoSinks(t *testing.T) {
	a := buildTwoSinkTrace().analyze(t, core.NewDictionary(), DefaultOptions())
	if a.RegressionErr != nil {
		t.Fatal(a.RegressionErr)
	}
	reg := a.Reg
	// Expect draws of 3 mA and 1.5 mA at 3 V: 9 mW and 4.5 mW.
	gotA := reg.PowerMW[Predictor{resA, 1}]
	gotB := reg.PowerMW[Predictor{resB, 1}]
	if math.Abs(gotA-9.0) > 0.3 {
		t.Errorf("sink A = %.3f mW, want 9.0", gotA)
	}
	if math.Abs(gotB-4.5) > 0.3 {
		t.Errorf("sink B = %.3f mW, want 4.5", gotB)
	}
	if math.Abs(reg.ConstMW-1.2) > 0.15 {
		t.Errorf("const = %.3f mW, want 1.2 (400 uA baseline)", reg.ConstMW)
	}
}

func TestRegressionGroupsByStateVector(t *testing.T) {
	a := buildTwoSinkTrace().analyze(t, core.NewDictionary(), DefaultOptions())
	if a.RegressionErr != nil {
		t.Fatal(a.RegressionErr)
	}
	// Four distinct combinations: {}, {A}, {A,B}, {B}.
	if len(a.Reg.Groups) != 4 {
		t.Errorf("groups = %d, want 4", len(a.Reg.Groups))
	}
}

func TestRegressionMergesCollinearPredictors(t *testing.T) {
	// Two sinks that always switch together, over a nonzero baseline so
	// the all-off group still produces pulses.
	b := newTraceBuilder()
	b.draw(resA, 1, 1000)
	b.draw(resB, 1, 2000)
	b.draw(0, 0, 400)
	b.states[0] = 0
	b.ps(resA, 0)
	b.ps(resB, 0)
	for i := 0; i < 3; i++ {
		b.advance(1_000_000)
		b.ps(resA, 1)
		b.ps(resB, 1)
		b.advance(1_000_000)
		b.ps(resA, 0)
		b.ps(resB, 0)
	}
	b.advance(1_000_000)
	b.marker()
	a := b.analyze(t, core.NewDictionary(), DefaultOptions())
	if a.RegressionErr != nil {
		t.Fatal(a.RegressionErr)
	}
	reg := a.Reg
	if len(reg.MergedInto) != 1 {
		t.Fatalf("MergedInto = %v, want one merged predictor", reg.MergedInto)
	}
	// The representative carries the combined draw: 3 mA at 3 V = 9 mW.
	if mw := reg.PowerMW[Predictor{resA, 1}]; math.Abs(mw-9.0) > 0.5 {
		t.Errorf("merged draw = %.3f mW, want ~9.0", mw)
	}
}

// TestRegressionErrorsOnEmptyInput: a log whose entries all share one
// microsecond has no interval to regress. The analysis degrades to a
// constant-only model and says why.
func TestRegressionErrorsOnEmptyInput(t *testing.T) {
	b := newTraceBuilder()
	b.marker()
	b.marker()
	a := b.analyze(t, core.NewDictionary(), DefaultOptions())
	if a.RegressionErr == nil || a.RegressionErr.Error() != "analysis: no intervals to regress" {
		t.Errorf("RegressionErr = %v, want no intervals to regress", a.RegressionErr)
	}
	if len(a.Reg.PowerMW) != 0 || a.Reg.ConstMW != 0 {
		t.Errorf("constant-only model = %v const %v, want no draws", a.Reg.PowerMW, a.Reg.ConstMW)
	}
}

func TestAnalyzeRequiresEntries(t *testing.T) {
	sa := NewStreamAnalyzer(1, 8.33, 3.0, core.NewDictionary(), DefaultOptions())
	if _, err := sa.Finish(); err == nil {
		t.Error("empty log should fail")
	}
}

func TestEnergyConservationSyntheticTrace(t *testing.T) {
	a := buildTwoSinkTrace().analyze(t, core.NewDictionary(), DefaultOptions())
	byRes, constUJ := a.EnergyByResource()
	var sum float64
	for _, uj := range byRes {
		sum += uj
	}
	sum += constUJ
	measured := a.TotalEnergyUJ()
	if rel := math.Abs(sum-measured) / measured; rel > 0.02 {
		t.Errorf("resource sum %.1f vs measured %.1f (rel %.4f)", sum, measured, rel)
	}
	if recErr := a.ReconstructionError(); recErr > 0.02 {
		t.Errorf("reconstruction error = %.4f", recErr)
	}
}

func TestActivityTimelineBasic(t *testing.T) {
	b := newTraceBuilder()
	l1 := core.MkLabel(1, 2)
	idle := core.MkLabel(1, 0)
	b.act(core.EntryActivitySet, resA, idle)
	b.advance(1000)
	b.act(core.EntryActivitySet, resA, l1)
	b.advance(2000)
	b.act(core.EntryActivitySet, resA, idle)
	b.advance(1000)
	b.marker()
	tl := b.analyze(t, core.NewDictionary(), DefaultOptions()).Single[resA]
	if tl.Res != resA || len(tl.Segs) != 3 {
		t.Fatalf("segments = %+v", tl)
	}
	if tl.Segs[1].Label != l1 || tl.Segs[1].End-tl.Segs[1].Start != 2000 {
		t.Errorf("middle segment = %+v", tl.Segs[1])
	}
}

func TestProxyBindingReassignsEpisode(t *testing.T) {
	b := newTraceBuilder()
	idle := core.MkLabel(1, 0)
	proxy := core.MkLabel(1, 7)
	remote := core.MkLabel(4, 2)
	dict := core.NewDictionary()
	dict.MarkProxy(proxy)

	b.act(core.EntryActivitySet, 0, idle)
	b.advance(1000)
	// Proxy episode: proxy, idle gap, proxy again, then bind.
	b.act(core.EntryActivitySet, 0, proxy)
	b.advance(500)
	b.act(core.EntryActivitySet, 0, idle)
	b.advance(200)
	b.act(core.EntryActivitySet, 0, proxy)
	b.advance(300)
	b.act(core.EntryActivityBind, 0, remote)
	b.advance(400)
	b.act(core.EntryActivitySet, 0, idle)
	b.advance(1000)
	b.marker()

	tl := b.analyze(t, dict, DefaultOptions()).Single[0]
	var proxyOwned, remoteOwned int64
	for _, s := range tl.Segs {
		switch s.Owner {
		case proxy:
			proxyOwned += s.End - s.Start
		case remote:
			remoteOwned += s.End - s.Start
		}
	}
	// Both proxy segments (500+300) reassigned to remote, plus the post-
	// bind segment (400).
	if remoteOwned != 1200 {
		t.Errorf("remote-owned = %d us, want 1200", remoteOwned)
	}
	if proxyOwned != 0 {
		t.Errorf("proxy-owned = %d us, want 0 after binding", proxyOwned)
	}
	// Raw labels untouched: the figures still show the proxies.
	var rawProxy int64
	for _, s := range tl.Segs {
		if s.Label == proxy {
			rawProxy += s.End - s.Start
		}
	}
	if rawProxy != 800 {
		t.Errorf("raw proxy time = %d, want 800", rawProxy)
	}
}

func TestProxyEpisodeEndsAtRealActivity(t *testing.T) {
	b := newTraceBuilder()
	idle := core.MkLabel(1, 0)
	proxy := core.MkLabel(1, 7)
	app := core.MkLabel(1, 3)
	remote := core.MkLabel(4, 2)
	dict := core.NewDictionary()
	dict.MarkProxy(proxy)

	b.act(core.EntryActivitySet, 0, idle)
	b.advance(1000)
	b.act(core.EntryActivitySet, 0, proxy) // unrelated earlier interrupt
	b.advance(500)
	b.act(core.EntryActivitySet, 0, app) // real activity closes the episode
	b.advance(700)
	b.act(core.EntryActivitySet, 0, proxy) // new episode
	b.advance(300)
	b.act(core.EntryActivityBind, 0, remote)
	b.advance(100)
	b.marker()

	var earlyProxyOwner core.Label
	for _, s := range b.analyze(t, dict, DefaultOptions()).Single[0].Segs {
		if s.Label == proxy {
			earlyProxyOwner = s.Owner
			break
		}
	}
	// The first proxy segment must NOT be stolen by the later bind.
	if earlyProxyOwner != proxy {
		t.Errorf("early proxy owned by %v, want %v (episode isolation)", earlyProxyOwner, proxy)
	}
}

func TestMultiActivityTimeline(t *testing.T) {
	b := newTraceBuilder()
	la, lb := core.MkLabel(1, 2), core.MkLabel(1, 3)
	b.act(core.EntryActivityAdd, resB, la)
	b.advance(1000)
	b.act(core.EntryActivityAdd, resB, lb)
	b.advance(2000)
	b.act(core.EntryActivityRemove, resB, la)
	b.advance(500)
	b.act(core.EntryActivityRemove, resB, lb)
	b.advance(100)
	b.marker()
	mt := b.analyze(t, core.NewDictionary(), DefaultOptions()).Multi[resB]
	if mt.Res != resB {
		t.Fatal("no multi timeline")
	}
	// Segments: {la} 1000, {la,lb} 2000, {lb} 500, {} 100.
	if len(mt.Segs) != 4 {
		t.Fatalf("segments = %d: %+v", len(mt.Segs), mt.Segs)
	}
	if len(mt.Segs[1].Labels) != 2 {
		t.Errorf("overlap segment labels = %v", mt.Segs[1].Labels)
	}
}

func TestSplitPoliciesConserveEnergy(t *testing.T) {
	// Resource B draws power while two activities share it; a baseline
	// keeps the off-groups measurable.
	b := newTraceBuilder()
	b.draw(resB, 1, 3000)
	b.draw(0, 0, 400)
	b.states[0] = 0
	la, lb := core.MkLabel(1, 2), core.MkLabel(1, 3)
	b.ps(resB, 0)
	b.advance(1000)
	b.ps(resB, 1)
	b.act(core.EntryActivityAdd, resB, la)
	b.advance(1_000_000)
	b.act(core.EntryActivityAdd, resB, lb)
	b.advance(2_000_000)
	b.act(core.EntryActivityRemove, resB, la)
	b.act(core.EntryActivityRemove, resB, lb)
	b.ps(resB, 0)
	b.advance(1_000_000)
	b.marker()

	for _, split := range []SplitPolicy{SplitEqual, SplitFirst} {
		opts := DefaultOptions()
		opts.Split = split
		a := b.analyze(t, core.NewDictionary(), opts)
		byAct := a.EnergyByActivity()
		var sum float64
		for _, uj := range byAct {
			sum += uj
		}
		byRes, constUJ := a.EnergyByResource()
		var resSum float64
		for _, uj := range byRes {
			resSum += uj
		}
		resSum += constUJ
		if math.Abs(sum-resSum) > 1 {
			t.Errorf("split %v: activity sum %.1f != resource sum %.1f", split, sum, resSum)
		}
		// Under equal split, each activity gets half the overlap window;
		// under first-takes-all, la gets it all.
		onePhase := 9.0 * 1e6 / 1000 // 9 mW for 1 s in uJ
		overlap := 9.0 * 2e6 / 1000
		wantLa := onePhase + overlap/2
		if split == SplitFirst {
			wantLa = onePhase + overlap
		}
		if math.Abs(byAct[la]-wantLa) > 0.05*wantLa {
			t.Errorf("split %v: la = %.1f uJ, want ~%.1f", split, byAct[la], wantLa)
		}
	}
}

func TestTimeByActivityCountsWallTime(t *testing.T) {
	b := newTraceBuilder()
	l1 := core.MkLabel(1, 2)
	idle := core.MkLabel(1, 0)
	b.act(core.EntryActivitySet, resA, idle)
	b.advance(3000)
	b.act(core.EntryActivitySet, resA, l1)
	b.advance(5000)
	b.act(core.EntryActivitySet, resA, idle)
	b.advance(2000)
	b.marker()
	times := b.analyze(t, core.NewDictionary(), DefaultOptions()).TimeByActivity()[resA]
	if times[l1] != 5000 {
		t.Errorf("l1 time = %d, want 5000", times[l1])
	}
	if times[idle] != 5000 {
		t.Errorf("idle time = %d, want 5000 (3000+2000)", times[idle])
	}
}

func TestUnweightedOptionChangesFit(t *testing.T) {
	b := buildTwoSinkTrace()
	unweighted := DefaultOptions()
	unweighted.Weighted = false
	// Both should be near truth on this clean trace; they must at least
	// both produce finite results.
	for _, opts := range []Options{DefaultOptions(), unweighted} {
		a := b.analyze(t, core.NewDictionary(), opts)
		if a.RegressionErr != nil {
			t.Fatal(a.RegressionErr)
		}
		for p, mw := range a.Reg.PowerMW {
			if math.IsNaN(mw) || math.IsInf(mw, 0) {
				t.Errorf("non-finite coefficient for %v", p)
			}
		}
	}
}
