package analysis

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/trace"
)

// The streaming analyzer keeps per-resource state in dense tables and
// interns state vectors and label sets. This file pins it to a naive
// recomputation that does none of that: map-keyed builders, a fresh state
// map and string key for every interval, and a regression that groups
// intervals by key and tracks predictor incidence in maps. Every derived
// quantity must match it exactly, floats bit for bit.

// refInterval is the reference's interval: its own copy of the non-zero
// states and their fingerprint.
type refInterval struct {
	Start, End int64
	Pulses     uint32
	States     map[core.ResourceID]core.PowerState
	Key        string
}

func refIntervals(entries []core.Entry, times []int64) []refInterval {
	states := make(map[core.ResourceID]core.PowerState)
	var out []refInterval
	var carry uint32
	for i := 0; i+1 < len(entries); i++ {
		e := entries[i]
		if e.Type == core.EntryPowerState {
			states[e.Res] = e.State()
		}
		pulses := entries[i+1].IC - e.IC
		if times[i+1] == times[i] {
			carry += pulses
			continue
		}
		cp := make(map[core.ResourceID]core.PowerState)
		var res []int
		for r, s := range states {
			if s != 0 {
				cp[r] = s
				res = append(res, int(r))
			}
		}
		sort.Ints(res)
		key := ""
		for _, r := range res {
			key += fmt.Sprintf("%d=%d;", r, cp[core.ResourceID(r)])
		}
		out = append(out, refInterval{times[i], times[i+1], pulses + carry, cp, key})
		carry = 0
	}
	return out
}

func refRegression(ivs []refInterval, pulseUJ float64, opts RegressionOptions) (*Regression, error) {
	if len(ivs) == 0 {
		return nil, fmt.Errorf("analysis: no intervals to regress")
	}
	groupIdx := make(map[string]int)
	var groups []StateGroup
	for _, iv := range ivs {
		gi, ok := groupIdx[iv.Key]
		if !ok {
			var active []Predictor
			for r, s := range iv.States {
				active = append(active, Predictor{r, s})
			}
			sortPredictors(active)
			gi = len(groups)
			groupIdx[iv.Key] = gi
			groups = append(groups, StateGroup{Key: iv.Key, Active: active})
		}
		groups[gi].TimeUS += iv.End - iv.Start
		groups[gi].EnergyUJ += float64(iv.Pulses) * pulseUJ
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	kept := groups[:0]
	for _, g := range groups {
		if g.TimeUS >= opts.MinGroupTimeUS && g.TimeUS > 0 && g.EnergyUJ > 0 {
			kept = append(kept, g)
		}
	}
	groups = kept

	seen := make(map[Predictor]int)
	activeIn := make(map[Predictor]map[string]bool)
	for _, g := range groups {
		for _, p := range g.Active {
			seen[p]++
			if activeIn[p] == nil {
				activeIn[p] = make(map[string]bool)
			}
			activeIn[p][g.Key] = true
		}
	}
	var cands, dropped []Predictor
	for p, n := range seen {
		if opts.IncludeConstant && n == len(groups) {
			dropped = append(dropped, p)
			continue
		}
		cands = append(cands, p)
	}
	sortPredictors(cands)
	sortPredictors(dropped)

	var spanUS int64
	for _, g := range groups {
		spanUS += g.TimeUS
	}
	limit := int64(opts.MergeTimeFrac * float64(spanUS))
	mergedInto := make(map[Predictor]Predictor)
	var predictors []Predictor
	for _, p := range cands {
		merged := false
		for _, r := range predictors {
			var d int64
			for _, g := range groups {
				if activeIn[p][g.Key] != activeIn[r][g.Key] {
					d += g.TimeUS
				}
			}
			if d <= limit {
				mergedInto[p] = r
				merged = true
				break
			}
		}
		if !merged {
			predictors = append(predictors, p)
		}
	}

	cols := len(predictors)
	if opts.IncludeConstant {
		cols++
	}
	if cols == 0 {
		return nil, fmt.Errorf("analysis: no predictors observed")
	}
	if len(groups) < cols {
		return nil, fmt.Errorf("analysis: %d state groups cannot constrain %d coefficients", len(groups), cols)
	}
	colOf := make(map[Predictor]int)
	for i, p := range predictors {
		colOf[p] = i
	}
	x := linalg.NewMatrix(len(groups), cols)
	y := make([]float64, len(groups))
	w := make([]float64, len(groups))
	for i, g := range groups {
		for _, p := range g.Active {
			if r, ok := mergedInto[p]; ok {
				p = r
			}
			if c, ok := colOf[p]; ok {
				x.Set(i, c, 1)
			}
		}
		if opts.IncludeConstant {
			x.Set(i, cols-1, 1)
		}
		y[i] = g.PowerMW()
		w[i] = 1
		if opts.Weighted {
			w[i] = math.Sqrt(g.EnergyUJ * float64(g.TimeUS))
		}
	}
	var fit *linalg.WLSResult
	var err error
	if opts.NonNegative {
		fit, err = linalg.NNLS(x, y, w)
	} else {
		fit, err = linalg.WLS(x, y, w)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: regression: %w", err)
	}
	reg := &Regression{
		Predictors: predictors, Groups: groups, Dropped: dropped,
		MergedInto: mergedInto, PowerMW: make(map[Predictor]float64), Fit: fit,
	}
	for i, p := range predictors {
		reg.PowerMW[p] = fit.Coef[i]
	}
	if opts.IncludeConstant {
		reg.ConstMW = fit.Coef[cols-1]
	}
	return reg, nil
}

// refTimelines is the map-keyed activity timeline reconstruction, with a
// heap-allocated open segment per activity change and a label map per
// multi-activity resource.
func refTimelines(entries []core.Entry, times []int64, isProxy func(core.Label) bool) (map[core.ResourceID]*ActTimeline, map[core.ResourceID]*MultiTimeline) {
	type openSingle struct {
		start   int64
		label   core.Label
		pending []int
	}
	type openMulti struct {
		start  int64
		labels map[core.Label]bool
	}
	single := make(map[core.ResourceID]*ActTimeline)
	multi := make(map[core.ResourceID]*MultiTimeline)
	opens := make(map[core.ResourceID]*openSingle)
	openm := make(map[core.ResourceID]*openMulti)
	sorted := func(set map[core.Label]bool) []core.Label {
		return slices.Sorted(maps.Keys(set))
	}
	for i, e := range entries {
		at := times[i]
		switch e.Type {
		case core.EntryActivitySet, core.EntryActivityBind:
			label := e.Label()
			tl := single[e.Res]
			if tl == nil {
				tl = &ActTimeline{Res: e.Res}
				single[e.Res] = tl
			}
			next := &openSingle{start: at, label: label}
			if os := opens[e.Res]; os != nil {
				if at > os.start {
					tl.Segs = append(tl.Segs, Segment{os.start, at, os.label, os.label})
				}
				next.pending = os.pending
				if n := len(tl.Segs); n > 0 && tl.Segs[n-1].End == at && isProxy(tl.Segs[n-1].Label) {
					next.pending = append(next.pending, n-1)
				}
			}
			switch {
			case e.Type == core.EntryActivityBind:
				for _, idx := range next.pending {
					tl.Segs[idx].Owner = label
				}
				next.pending = nil
			case !isProxy(label) && !label.IsIdle():
				next.pending = nil
			}
			opens[e.Res] = next
		case core.EntryActivityAdd, core.EntryActivityRemove:
			mt := multi[e.Res]
			if mt == nil {
				mt = &MultiTimeline{Res: e.Res}
				multi[e.Res] = mt
			}
			om := openm[e.Res]
			if om == nil {
				om = &openMulti{start: at, labels: make(map[core.Label]bool)}
				openm[e.Res] = om
			}
			if at > om.start {
				mt.Segs = append(mt.Segs, MultiSegment{om.start, at, sorted(om.labels)})
			}
			if e.Type == core.EntryActivityAdd {
				om.labels[e.Label()] = true
			} else {
				delete(om.labels, e.Label())
			}
			om.start = at
		}
	}
	end := times[len(times)-1]
	for res, os := range opens {
		if end > os.start {
			single[res].Segs = append(single[res].Segs, Segment{os.start, end, os.label, os.label})
		}
	}
	for res, om := range openm {
		if end > om.start {
			multi[res].Segs = append(multi[res].Segs, MultiSegment{om.start, end, sorted(om.labels)})
		}
	}
	return single, multi
}

func refStateTimelines(entries []core.Entry, times []int64) map[core.ResourceID][]StateSegment {
	out := make(map[core.ResourceID][]StateSegment)
	open := make(map[core.ResourceID]StateSegment)
	for i, e := range entries {
		if e.Type != core.EntryPowerState {
			continue
		}
		if seg, ok := open[e.Res]; ok && times[i] > seg.Start {
			seg.End = times[i]
			out[e.Res] = append(out[e.Res], seg)
		}
		open[e.Res] = StateSegment{Start: times[i], State: e.State()}
	}
	end := times[len(times)-1]
	for res, seg := range open {
		if end > seg.Start {
			seg.End = end
			out[res] = append(out[res], seg)
		}
	}
	return out
}

// refAnalysis assembles the reference Analysis the way StreamAnalyzer.Finish
// does, from the reference builders.
func refAnalysis(entries []core.Entry, dict *core.Dictionary, pulseUJ float64, opts Options) (*Analysis, []refInterval) {
	times := trace.UnwrapTimes(entries)
	ivs := refIntervals(entries, times)
	start, end := times[0], times[len(times)-1]
	total := entries[len(entries)-1].IC - entries[0].IC
	reg, regErr := refRegression(ivs, pulseUJ, opts.Regression)
	if regErr != nil {
		reg = &Regression{
			PowerMW: make(map[Predictor]float64),
			ConstMW: float64(total) * pulseUJ / float64(end-start) * 1000,
		}
	}
	single, multi := refTimelines(entries, times, dict.IsProxy)
	return &Analysis{
		Trace: &NodeTrace{Node: 1, PulseUJ: pulseUJ, Volts: 3.0}, Dict: dict, Opts: opts,
		StartUS: start, EndUS: end, TotalPulses: total,
		Reg: reg, RegressionErr: regErr,
		Single: single, Multi: multi, States: refStateTimelines(entries, times),
	}, ivs
}

// randomLog generates a log over sparse resource ids (0 and 255 included):
// power states driven by a simulated meter, set and bind entries mixing
// real, idle and proxy labels, multi-activity adds and removes (some of
// absent labels), runs of entries within one microsecond, and a 32-bit
// clock and meter counter that both wrap early in the log.
func randomLog(rng *rand.Rand, dict *core.Dictionary, pulseUJ float64) []core.Entry {
	psRes := []core.ResourceID{0, 3, 42, 200, 255}
	singleRes := []core.ResourceID{0, 7, 255}
	multiRes := []core.ResourceID{11, 254}
	labels := []core.Label{
		core.MkLabel(1, 0), core.MkLabel(1, 2), core.MkLabel(1, 3), core.MkLabel(2, 4),
		core.MkLabel(1, 20), core.MkLabel(1, 21), core.MkLabel(2, 0),
	}
	dict.MarkProxy(core.MkLabel(1, 20))
	dict.MarkProxy(core.MkLabel(1, 21))
	draw := make(map[Predictor]float64) // uA
	for _, r := range psRes {
		for s := core.PowerState(1); s <= 3; s++ {
			draw[Predictor{r, s}] = float64(200 + rng.Intn(5000))
		}
	}
	states := make(map[core.ResourceID]core.PowerState)

	now := uint32(0xFFFF_FFFF - rng.Intn(100_000))
	icBase := uint32(0xFFFF_FFFF - rng.Intn(50))
	var accUJ float64
	var out []core.Entry
	emit := func(typ core.EntryType, res core.ResourceID, val uint16) {
		out = append(out, core.Entry{Type: typ, Res: res, Time: now, IC: icBase + uint32(accUJ/pulseUJ), Val: val})
	}
	for _, r := range psRes {
		emit(core.EntryPowerState, r, 0)
	}
	for n := 600 + rng.Intn(600); len(out) < n; {
		if rng.Intn(10) >= 3 { // 30% of entries share the previous microsecond
			dt := 1 + rng.Intn(3000)
			ua := 400.0
			for r, s := range states {
				ua += draw[Predictor{r, s}]
			}
			accUJ += ua * 3.0 * float64(dt) * 1e-6
			now += uint32(dt)
		}
		switch k := rng.Intn(100); {
		case k < 45:
			r, s := psRes[rng.Intn(len(psRes))], core.PowerState(rng.Intn(4))
			states[r] = s
			emit(core.EntryPowerState, r, uint16(s))
		case k < 65:
			emit(core.EntryActivitySet, singleRes[rng.Intn(len(singleRes))], uint16(labels[rng.Intn(len(labels))]))
		case k < 72:
			emit(core.EntryActivityBind, singleRes[rng.Intn(len(singleRes))], uint16(labels[1+rng.Intn(3)]))
		case k < 84:
			emit(core.EntryActivityAdd, multiRes[rng.Intn(len(multiRes))], uint16(labels[rng.Intn(len(labels))]))
		case k < 96:
			emit(core.EntryActivityRemove, multiRes[rng.Intn(len(multiRes))], uint16(labels[rng.Intn(len(labels))]))
		default:
			emit(core.EntryMarker, 0, 0xFFFF)
		}
	}
	now += 1000
	emit(core.EntryMarker, 0, 0xFFFF)
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloatMap[K comparable](a, b map[K]float64) bool {
	return maps.EqualFunc(a, b, sameBits)
}

// TestStreamAnalyzerMatchesNaiveReference checks intervals, vectors,
// groups, coefficients, timelines and breakdowns of random logs against the
// naive recomputation, exactly.
func TestStreamAnalyzerMatchesNaiveReference(t *testing.T) {
	const pulseUJ = 8.33
	unweighted := DefaultOptions()
	unweighted.Regression = RegressionOptions{IncludeConstant: true, MergeTimeFrac: 0.002}
	firstSplit := DefaultOptions()
	firstSplit.Split, firstSplit.ResolveProxies = SplitFirst, false

	var fitted, rebound, overlaps, wrapped int
	for seed := int64(1); seed <= 30; seed++ {
		for oi, opts := range []Options{DefaultOptions(), unweighted, firstSplit} {
			rng := rand.New(rand.NewSource(seed))
			dict := core.NewDictionary()
			entries := randomLog(rng, dict, pulseUJ)
			name := fmt.Sprintf("seed %d options %d", seed, oi)

			sa := NewStreamAnalyzer(1, pulseUJ, 3.0, dict, opts)
			sa.RecordBatch(entries)
			got, err := sa.Finish()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, ivs := refAnalysis(entries, dict, pulseUJ, opts)
			if entries[len(entries)-1].Time < entries[0].Time {
				wrapped++
			}

			if len(got.Intervals) != len(ivs) {
				t.Fatalf("%s: %d intervals, want %d", name, len(got.Intervals), len(ivs))
			}
			for i, iv := range got.Intervals {
				ref := ivs[i]
				vec := got.Vectors[iv.Vec]
				states := make(map[core.ResourceID]core.PowerState)
				for _, p := range vec.Active {
					states[p.Res] = p.State
				}
				if iv.Start != ref.Start || iv.End != ref.End || iv.Pulses != ref.Pulses ||
					vec.Key != ref.Key || !maps.Equal(states, ref.States) {
					t.Fatalf("%s: interval %d = %+v %q %v, want %+v", name, i, iv, vec.Key, states, ref)
				}
			}

			if (got.RegressionErr == nil) != (want.RegressionErr == nil) ||
				(got.RegressionErr != nil && got.RegressionErr.Error() != want.RegressionErr.Error()) {
				t.Fatalf("%s: regression error %v, want %v", name, got.RegressionErr, want.RegressionErr)
			}
			gr, wr := got.Reg, want.Reg
			if got.RegressionErr == nil {
				fitted++
			}
			if len(gr.Groups) != len(wr.Groups) {
				t.Fatalf("%s: %d groups, want %d", name, len(gr.Groups), len(wr.Groups))
			}
			for i, g := range gr.Groups {
				w := wr.Groups[i]
				if g.Key != w.Key || g.TimeUS != w.TimeUS || !sameBits(g.EnergyUJ, w.EnergyUJ) || !slices.Equal(g.Active, w.Active) {
					t.Errorf("%s: group %d = %+v, want %+v", name, i, g, w)
				}
			}
			if !slices.Equal(gr.Predictors, wr.Predictors) || !slices.Equal(gr.Dropped, wr.Dropped) ||
				!maps.Equal(gr.MergedInto, wr.MergedInto) {
				t.Errorf("%s: predictors %v dropped %v merged %v, want %v %v %v", name,
					gr.Predictors, gr.Dropped, gr.MergedInto, wr.Predictors, wr.Dropped, wr.MergedInto)
			}
			if !sameFloatMap(gr.PowerMW, wr.PowerMW) || !sameBits(gr.ConstMW, wr.ConstMW) {
				t.Errorf("%s: coefficients %v const %v, want %v const %v", name, gr.PowerMW, gr.ConstMW, wr.PowerMW, wr.ConstMW)
			}

			if !maps.EqualFunc(got.Single, want.Single, func(a, b *ActTimeline) bool {
				return a.Res == b.Res && slices.Equal(a.Segs, b.Segs)
			}) {
				t.Errorf("%s: single-activity timelines differ", name)
			}
			if !maps.EqualFunc(got.Multi, want.Multi, func(a, b *MultiTimeline) bool {
				return a.Res == b.Res && slices.EqualFunc(a.Segs, b.Segs, func(x, y MultiSegment) bool {
					return x.Start == y.Start && x.End == y.End && slices.Equal(x.Labels, y.Labels)
				})
			}) {
				t.Errorf("%s: multi-activity timelines differ", name)
			}
			if !maps.EqualFunc(got.States, want.States, slices.Equal) {
				t.Errorf("%s: power-state timelines differ", name)
			}
			if !maps.EqualFunc(got.TimeByActivity(), want.TimeByActivity(), maps.Equal) {
				t.Errorf("%s: TimeByActivity differs", name)
			}
			if g, w := got.EnergyByActivity(), want.EnergyByActivity(); !sameFloatMap(g, w) {
				t.Errorf("%s: EnergyByActivity = %v, want %v", name, g, w)
			}

			for _, tl := range got.Single {
				for _, s := range tl.Segs {
					if s.Owner != s.Label {
						rebound++
					}
				}
			}
			for _, mt := range got.Multi {
				for _, s := range mt.Segs {
					if len(s.Labels) > 1 {
						overlaps++
					}
				}
			}
		}
	}
	// The generator must reach the paths the check is about.
	if fitted == 0 || rebound == 0 || overlaps == 0 || wrapped == 0 {
		t.Errorf("coverage: %d fitted regressions, %d rebound proxy segments, %d overlapping label sets, %d wrapped clocks",
			fitted, rebound, overlaps, wrapped)
	}
}
