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
	"repro/internal/units"
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

func refRegression(ivs []refInterval, pulseUJ float64, weighted bool) (*Regression, error) {
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
			slices.SortFunc(active, comparePredictors)
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
		if g.TimeUS > 0 && g.EnergyUJ > 0 {
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
		if n == len(groups) {
			dropped = append(dropped, p)
			continue
		}
		cands = append(cands, p)
	}
	slices.SortFunc(cands, comparePredictors)
	slices.SortFunc(dropped, comparePredictors)

	var spanUS int64
	for _, g := range groups {
		spanUS += g.TimeUS
	}
	limit := int64(mergeTimeFrac * float64(spanUS))
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

	cols := len(predictors) + 1
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
		x.Set(i, cols-1, 1)
		y[i] = g.PowerMW()
		w[i] = 1
		if weighted {
			w[i] = math.Sqrt(g.EnergyUJ * float64(g.TimeUS))
		}
	}
	fit, err := linalg.NNLS(x, y, w)
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
	reg.ConstMW = fit.Coef[cols-1]
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

// refNode is the reference's view of one node, what StreamAnalyzer.Finish
// derives from its log: the window, the model and the timelines, in maps
// keyed by every resource that logged an entry of the kind.
type refNode struct {
	opts           Options
	startUS, endUS int64
	totalPulses    uint32
	reg            *Regression
	regErr         error
	single         map[core.ResourceID]*ActTimeline
	multi          map[core.ResourceID]*MultiTimeline
	states         map[core.ResourceID][]StateSegment
}

func (r *refNode) span() int64 { return r.endUS - r.startUS }

// refAnalysis assembles the reference node the way StreamAnalyzer.Finish
// does, from the reference builders.
func refAnalysis(entries []core.Entry, dict *core.Dictionary, pulseUJ float64, opts Options) (*refNode, []refInterval) {
	// Each stamp lies its forward distance, mod 2^32, past the one before.
	times := make([]int64, len(entries))
	for i, e := range entries {
		times[i] = int64(e.Time)
		if i > 0 {
			times[i] = times[i-1] + int64(e.Time-entries[i-1].Time)
		}
	}
	ivs := refIntervals(entries, times)
	start, end := times[0], times[len(times)-1]
	total := entries[len(entries)-1].IC - entries[0].IC
	reg, regErr := refRegression(ivs, pulseUJ, opts.Weighted)
	if regErr != nil {
		reg = &Regression{
			PowerMW: make(map[Predictor]float64),
			ConstMW: float64(total) * pulseUJ / float64(end-start) * 1000,
		}
	}
	single, multi := refTimelines(entries, times, dict.IsProxy)
	return &refNode{
		opts: opts, startUS: start, endUS: end, totalPulses: total,
		reg: reg, regErr: regErr,
		single: single, multi: multi, states: refStateTimelines(entries, times),
	}, ivs
}

// refTimeByActivity is the time breakdown over the reference's maps: every
// resource with an activity timeline gets a row, empty or not.
func refTimeByActivity(r *refNode) map[core.ResourceID]map[core.Label]int64 {
	out := make(map[core.ResourceID]map[core.Label]int64)
	row := func(res core.ResourceID) map[core.Label]int64 {
		if out[res] == nil {
			out[res] = make(map[core.Label]int64)
		}
		return out[res]
	}
	for res, tl := range r.single {
		m := row(res)
		for _, s := range tl.Segs {
			owner := s.Label
			if r.opts.ResolveProxies {
				owner = s.Owner
			}
			m[owner] += s.End - s.Start
		}
	}
	for res, mt := range r.multi {
		m := row(res)
		for _, s := range mt.Segs {
			switch dur := s.End - s.Start; {
			case len(s.Labels) == 0:
			case r.opts.Split == SplitFirst:
				m[s.Labels[0]] += dur
			default:
				for _, l := range s.Labels {
					m[l] += dur / int64(len(s.Labels))
				}
			}
		}
	}
	return out
}

// refEnergyByActivity is the map-based breakdown the charging kernel
// replaced, kept as its oracle: a binary search of the activity timeline
// for every state segment, a map lookup for every fitted power, and a map
// entry that every charge adds into.
func refEnergyByActivity(r *refNode) map[core.Label]float64 {
	out := make(map[core.Label]float64)

	for _, res := range slices.Sorted(maps.Keys(r.states)) {
		for _, seg := range r.states[res] {
			if seg.State == 0 {
				continue
			}
			mw, ok := r.reg.PowerMW[Predictor{res, seg.State}]
			if !ok {
				continue
			}
			refChargeWindow(r, res, seg.Start, seg.End, mw, out)
		}
	}
	out[ConstLabel] += r.reg.ConstMW * float64(r.span()) / 1000
	return out
}

// refChargeWindow distributes mw over [start, end) according to res's
// activity timeline.
func refChargeWindow(r *refNode, res core.ResourceID, start, end int64, mw float64, out map[core.Label]float64) {
	charge := func(l core.Label, us int64) {
		if us > 0 {
			out[l] += mw * float64(us) / 1000
		}
	}
	if tl := r.single[res]; tl != nil {
		first := sort.Search(len(tl.Segs), func(i int) bool { return tl.Segs[i].End > start })
		for _, s := range tl.Segs[first:] {
			if s.Start >= end {
				break
			}
			lo, hi := max(s.Start, start), min(s.End, end)
			if hi > lo {
				owner := s.Label
				if r.opts.ResolveProxies {
					owner = s.Owner
				}
				charge(owner, hi-lo)
			}
		}
		return
	}
	if mt := r.multi[res]; mt != nil {
		first := sort.Search(len(mt.Segs), func(i int) bool { return mt.Segs[i].End > start })
		for _, s := range mt.Segs[first:] {
			if s.Start >= end {
				break
			}
			lo, hi := max(s.Start, start), min(s.End, end)
			if hi <= lo {
				continue
			}
			switch {
			case len(s.Labels) == 0:
				charge(ConstLabel, hi-lo) // unattributed hardware-on time
			case r.opts.Split == SplitFirst:
				charge(s.Labels[0], hi-lo)
			default:
				for _, l := range s.Labels {
					out[l] += mw * float64(hi-lo) / 1000 / float64(len(s.Labels))
				}
			}
		}
		return
	}
	// No activity instrumentation on this resource: unattributed.
	charge(ConstLabel, end-start)
}

// logShape is what randomLog draws from: the resources that log power
// states (each with its highest state), single-activity and multi-activity
// entries, and how many labels to use beyond the seven it always uses.
type logShape struct {
	psRes               []core.ResourceID
	maxState            []core.PowerState // parallel to psRes
	singleRes, multiRes []core.ResourceID
	lastRes             []core.ResourceID // each logs one set entry, at the last microsecond
	moreLabels          int
}

var (
	// narrowShape keeps activity timelines and power states apart except
	// on resources 0 and 255, and on 200, whose activity timeline has no
	// segment: its one set entry comes at the log's last microsecond.
	narrowShape = logShape{
		psRes:     []core.ResourceID{0, 3, 42, 200, 255},
		maxState:  []core.PowerState{3, 3, 3, 3, 3},
		singleRes: []core.ResourceID{0, 7, 255},
		multiRes:  []core.ResourceID{11, 254},
		lastRes:   []core.ResourceID{200},
	}
	// wideShape reaches the rest of the charging kernel: resource 0 has 11
	// non-baseline states, multi-activity resource 11 draws power,
	// resource 7 logs single- and multi-activity entries and draws power,
	// resource 3 draws power with no activity timeline, and 80 more labels
	// let one node charge more than 64.
	wideShape = logShape{
		psRes:      []core.ResourceID{0, 3, 7, 11, 255},
		maxState:   []core.PowerState{11, 3, 3, 3, 3},
		singleRes:  []core.ResourceID{0, 7, 255},
		multiRes:   []core.ResourceID{7, 11, 254},
		moreLabels: 80,
	}
)

// randomLog generates a log over sparse resource ids (0 and 255 included):
// power states driven by a simulated meter, set and bind entries mixing
// real, idle and proxy labels, multi-activity adds and removes (some of
// absent labels), runs of entries within one microsecond, and a 32-bit
// clock and meter counter that both wrap early in the log.
func randomLog(rng *rand.Rand, dict *core.Dictionary, pulseUJ float64, shape logShape) []core.Entry {
	psRes, singleRes, multiRes := shape.psRes, shape.singleRes, shape.multiRes
	labels := []core.Label{
		core.MkLabel(1, 0), core.MkLabel(1, 2), core.MkLabel(1, 3), core.MkLabel(2, 4),
		core.MkLabel(1, 20), core.MkLabel(1, 21), core.MkLabel(2, 0),
	}
	// Multi-activity entries draw from the base labels alone, so their
	// sets empty out now and then whatever the shape.
	baseLabels := len(labels)
	for i := range shape.moreLabels {
		labels = append(labels, core.MkLabel(core.NodeID(3+i/40), core.ActivityID(2+i%40)))
	}
	dict.MarkProxy(core.MkLabel(1, 20))
	dict.MarkProxy(core.MkLabel(1, 21))
	draw := make(map[Predictor]float64) // uA
	for i, r := range psRes {
		for s := core.PowerState(1); s <= shape.maxState[i]; s++ {
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
			i := rng.Intn(len(psRes))
			r, s := psRes[i], core.PowerState(rng.Intn(int(shape.maxState[i])+1))
			states[r] = s
			emit(core.EntryPowerState, r, uint16(s))
		case k < 65:
			emit(core.EntryActivitySet, singleRes[rng.Intn(len(singleRes))], uint16(labels[rng.Intn(len(labels))]))
		case k < 72:
			emit(core.EntryActivityBind, singleRes[rng.Intn(len(singleRes))], uint16(labels[1+rng.Intn(3)]))
		case k < 84:
			emit(core.EntryActivityAdd, multiRes[rng.Intn(len(multiRes))], uint16(labels[rng.Intn(baseLabels)]))
		case k < 96:
			emit(core.EntryActivityRemove, multiRes[rng.Intn(len(multiRes))], uint16(labels[rng.Intn(baseLabels)]))
		default:
			emit(core.EntryMarker, 0, 0xFFFF)
		}
	}
	now += 1000
	for _, r := range shape.lastRes {
		emit(core.EntryActivitySet, r, uint16(labels[1]))
	}
	emit(core.EntryMarker, 0, 0xFFFF)
	return out
}

// oneOfTwoLog generates a log over two sinks of which exactly one is on
// whenever time passes: each switch turns one off and the other on within
// one microsecond, and single-activity entries fall between switches. Its
// two state groups cannot constrain two draws and the constant, so the
// regression must fall back to the constant-only model.
func oneOfTwoLog(rng *rand.Rand, pulseUJ float64) []core.Entry {
	sinks := [2]core.ResourceID{3, 7}
	drawUA := [2]float64{float64(500 + rng.Intn(3000)), float64(500 + rng.Intn(3000))}
	now := uint32(rng.Intn(1000))
	var accUJ float64
	var out []core.Entry
	emit := func(typ core.EntryType, res core.ResourceID, val uint16) {
		out = append(out, core.Entry{Type: typ, Res: res, Time: now, IC: uint32(accUJ / pulseUJ), Val: val})
	}
	on := rng.Intn(2)
	emit(core.EntryPowerState, sinks[1-on], 0)
	emit(core.EntryPowerState, sinks[on], 1)
	for n := 100 + rng.Intn(100); len(out) < n; {
		dt := 1 + rng.Intn(3000)
		accUJ += (400 + drawUA[on]) * 3.0 * float64(dt) * 1e-6
		now += uint32(dt)
		if rng.Intn(3) == 0 {
			emit(core.EntryActivitySet, sinks[rng.Intn(2)], uint16(core.MkLabel(1, core.ActivityID(2+rng.Intn(3)))))
			continue
		}
		emit(core.EntryPowerState, sinks[on], 0)
		on = 1 - on
		emit(core.EntryPowerState, sinks[on], 1)
	}
	now += 1000
	emit(core.EntryMarker, 0, 0xFFFF)
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloatMap[K comparable](a, b map[K]float64) bool {
	return maps.EqualFunc(a, b, sameBits)
}

// feeds are the ways one log can reach a StreamAnalyzer: whole through
// RecordBatch, in batches of a fixed size (so the log's highest resource
// id first appears in a later batch than its first), with an empty batch
// between its halves, and entry by entry through Record. RecordBatch sizes
// tables from a counting pass over each batch; only capacities may differ
// between the feeds, never a result.
var feeds = []struct {
	name string
	feed func(*StreamAnalyzer, []core.Entry)
}{
	{"whole batch", func(sa *StreamAnalyzer, es []core.Entry) { sa.RecordBatch(es) }},
	{"batches of 1", inBatches(1)},
	{"batches of 7", inBatches(7)},
	{"batches of 4096", inBatches(4096)},
	{"empty batch between halves", func(sa *StreamAnalyzer, es []core.Entry) {
		sa.RecordBatch(es[:len(es)/2])
		sa.RecordBatch(nil)
		sa.RecordBatch(es[len(es)/2:])
	}},
	{"per-entry Record", func(sa *StreamAnalyzer, es []core.Entry) {
		for _, e := range es {
			sa.Record(e)
		}
	}},
}

func inBatches(n int) func(*StreamAnalyzer, []core.Entry) {
	return func(sa *StreamAnalyzer, es []core.Entry) {
		for len(es) > 0 {
			k := min(n, len(es))
			sa.RecordBatch(es[:k])
			es = es[k:]
		}
	}
}

// refNodeOf is a finished Analysis as the reference's view of it, so two
// analyzers' results compare through one check: each resource that logged
// an activity entry keys its timeline, and each with a power-state
// segment its states.
func refNodeOf(a *Analysis) *refNode {
	r := &refNode{
		opts: a.Opts, startUS: a.StartUS, endUS: a.EndUS, totalPulses: a.TotalPulses,
		reg: a.Reg, regErr: a.RegressionErr,
		single: make(map[core.ResourceID]*ActTimeline),
		multi:  make(map[core.ResourceID]*MultiTimeline),
		states: make(map[core.ResourceID][]StateSegment),
	}
	for i := range a.Single {
		if a.Single[i].seen {
			r.single[core.ResourceID(i)] = &a.Single[i]
		}
	}
	for i := range a.Multi {
		if a.Multi[i].seen {
			r.multi[core.ResourceID(i)] = &a.Multi[i]
		}
	}
	for i, segs := range a.States {
		if len(segs) > 0 {
			r.states[core.ResourceID(i)] = segs
		}
	}
	return r
}

// at returns a per-resource table's entry for res, or the zero entry past
// the table's end.
func at[T any](table []T, res core.ResourceID) (zero T) {
	if int(res) < len(table) {
		return table[res]
	}
	return zero
}

// checkSameAnalysis compares got, the Analysis sa's Finish returned,
// against want exactly, floats by their bits: the window, the regression
// (error, groups, predictors, coefficients), the activity and power-state
// timelines resource by resource, the time breakdown, and the energy
// breakdown, got's ByActivity and the map EnergyByActivity makes of it,
// against the map-based oracle run on want. A second Finish must return
// got again, unchanged. Intervals and vectors are left to the caller, since
// the naive reference has none.
func checkSameAnalysis(t *testing.T, name string, sa *StreamAnalyzer, got *Analysis, want *refNode) {
	t.Helper()
	if again, err := sa.Finish(); again != got || err != nil {
		t.Fatalf("%s: a second Finish gives %p (%v), want the first's %p", name, again, err, got)
	}
	if got.StartUS != want.startUS || got.EndUS != want.endUS || got.TotalPulses != want.totalPulses {
		t.Errorf("%s: [%d, %d] with %d pulses, want [%d, %d] with %d", name,
			got.StartUS, got.EndUS, got.TotalPulses, want.startUS, want.endUS, want.totalPulses)
	}
	if (got.RegressionErr == nil) != (want.regErr == nil) ||
		(got.RegressionErr != nil && got.RegressionErr.Error() != want.regErr.Error()) {
		t.Fatalf("%s: regression error %v, want %v", name, got.RegressionErr, want.regErr)
	}
	gr, wr := got.Reg, want.reg
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

	// A resource the reference has no timeline for must have an empty,
	// unseen entry, and one it has must hold the same segments under its
	// own id.
	sameMulti := func(x, y MultiSegment) bool {
		return x.Start == y.Start && x.End == y.End && slices.Equal(x.Labels, y.Labels)
	}
	for r := range 1 << 8 {
		res := core.ResourceID(r)
		gs, ws := at(got.Single, res), want.single[res]
		if gs.seen != (ws != nil) || len(gs.Segs) > 0 && ws == nil || ws != nil && (gs.Res != res || !slices.Equal(gs.Segs, ws.Segs)) {
			t.Errorf("%s: resource %d: single-activity timeline %+v, want %+v", name, res, gs, ws)
		}
		gm, wm := at(got.Multi, res), want.multi[res]
		if gm.seen != (wm != nil) || len(gm.Segs) > 0 && wm == nil || wm != nil && (gm.Res != res || !slices.EqualFunc(gm.Segs, wm.Segs, sameMulti)) {
			t.Errorf("%s: resource %d: multi-activity timeline %+v, want %+v", name, res, gm, wm)
		}
		if g, w := at(got.States, res), want.states[res]; !slices.Equal(g, w) {
			t.Errorf("%s: resource %d: power states %v, want %v", name, res, g, w)
		}
	}
	if g, w := got.TimeByActivity(), refTimeByActivity(want); !maps.EqualFunc(g, w, maps.Equal) {
		t.Errorf("%s: TimeByActivity = %v, want %v", name, g, w)
	}
	oracle := refEnergyByActivity(want)
	byLabel := got.EnergyByActivity()
	if len(byLabel) != len(got.ByActivity) || !sameFloatMap(byLabel, oracle) {
		t.Errorf("%s: ByActivity = %v, want %v", name, got.ByActivity, oracle)
	}
}

// kernelCoverage counts the charging-kernel paths the breakdowns checked
// against the oracle reach.
type kernelCoverage struct {
	manyLabels, manyStates, unattributed, emptyTimeline, uncovered, bothTimelines, emptySet, constOnly int
}

// add counts the paths the breakdown of r, which charges labels labels,
// reaches: more than 64 labels (the label table grows twice), a resource
// in more than 8 non-baseline states (more than the power memo holds), a
// resource drawing power with no activity timeline, one with a
// single-activity timeline that has no segment, one drawing power before
// its single-activity timeline starts, one with both kinds of timeline, a multi-activity segment with an empty set over a charged
// state segment, and a constant-only model with a constant to charge.
func (c *kernelCoverage) add(r *refNode, labels int) {
	if labels > 64 {
		c.manyLabels++
	}
	if r.regErr != nil && r.reg.ConstMW > 0 {
		c.constOnly++
	}
	for res, states := range r.states {
		charged := func(s StateSegment) bool {
			_, ok := r.reg.PowerMW[Predictor{res, s.State}]
			return s.State != 0 && ok
		}
		inStates := make(map[core.PowerState]bool)
		for _, s := range states {
			if s.State != 0 {
				inStates[s.State] = true
			}
		}
		if len(inStates) > 8 {
			c.manyStates++
		}
		if !slices.ContainsFunc(states, charged) {
			continue
		}
		single, multi := r.single[res], r.multi[res]
		switch {
		case single == nil && multi == nil:
			c.unattributed++
		case single != nil && multi != nil:
			c.bothTimelines++
		case single != nil && len(single.Segs) == 0:
			c.emptyTimeline++
		case single != nil:
			if slices.ContainsFunc(states, func(s StateSegment) bool {
				return charged(s) && s.Start < single.Segs[0].Start
			}) {
				c.uncovered++
			}
		case multi != nil:
			if slices.ContainsFunc(multi.Segs, func(m MultiSegment) bool {
				return len(m.Labels) == 0 && slices.ContainsFunc(states, func(s StateSegment) bool {
					return charged(s) && s.Start < m.End && m.Start < s.End
				})
			}) {
				c.emptySet++
			}
		}
	}
}

// TestStreamAnalyzerMatchesNaiveReference checks intervals, vectors,
// groups, coefficients, timelines and breakdowns of random logs against the
// naive recomputation, exactly, for every feed of the same log. The narrow
// logs charge no multi-activity resource, so only the wide ones run under
// every option set: both split policies with proxies resolved and not. The
// one-of-two logs cannot be fit and take the constant-only model.
func TestStreamAnalyzerMatchesNaiveReference(t *testing.T) {
	const pulseUJ = 8.33
	unweighted := DefaultOptions()
	unweighted.Weighted = false
	firstSplit := DefaultOptions()
	firstSplit.Split, firstSplit.ResolveProxies = SplitFirst, false
	firstResolved := DefaultOptions()
	firstResolved.Split = SplitFirst
	equalRaw := DefaultOptions()
	equalRaw.ResolveProxies = false
	narrowOpts := []Options{DefaultOptions(), unweighted, firstSplit}
	wideOpts := append(narrowOpts, firstResolved, equalRaw)
	shaped := func(shape logShape) func(*rand.Rand, *core.Dictionary) []core.Entry {
		return func(rng *rand.Rand, dict *core.Dictionary) []core.Entry { return randomLog(rng, dict, pulseUJ, shape) }
	}

	var fitted, rebound, overlaps, wrapped, lateTop int
	var kernel kernelCoverage
	for _, shape := range []struct {
		name  string
		log   func(*rand.Rand, *core.Dictionary) []core.Entry
		seeds int64
		opts  []Options
	}{
		{"narrow", shaped(narrowShape), 30, narrowOpts},
		{"wide", shaped(wideShape), 10, wideOpts},
		{"one-of-two", func(rng *rand.Rand, _ *core.Dictionary) []core.Entry { return oneOfTwoLog(rng, pulseUJ) }, 3, narrowOpts},
	} {
		for seed := int64(1); seed <= shape.seeds; seed++ {
			for oi, opts := range shape.opts {
				rng := rand.New(rand.NewSource(seed))
				dict := core.NewDictionary()
				entries := shape.log(rng, dict)
				want, ivs := refAnalysis(entries, dict, pulseUJ, opts)
				if entries[len(entries)-1].Time < entries[0].Time {
					wrapped++
				}
				// The single-activity table's highest resource id should first
				// show up after the first batch of 7, so a later batch must
				// extend what the first one reserved.
				isSingle := func(e core.Entry) bool {
					return e.Type == core.EntryActivitySet || e.Type == core.EntryActivityBind
				}
				var top core.ResourceID
				for _, e := range entries {
					if isSingle(e) {
						top = max(top, e.Res)
					}
				}
				if !slices.ContainsFunc(entries[:7], func(e core.Entry) bool { return isSingle(e) && e.Res == top }) {
					lateTop++
				}
				// How entries arrive is independent of the regression options,
				// so the other option sets take the whole-batch feed alone.
				fs := feeds
				if oi > 0 || shape.name != "narrow" {
					fs = feeds[:1]
				}
				var first *Analysis
				for _, f := range fs {
					name := fmt.Sprintf("%s log, seed %d options %d, %s", shape.name, seed, oi, f.name)
					sa := NewStreamAnalyzer(1, pulseUJ, 3.0, dict, opts)
					f.feed(sa, entries)
					got, err := sa.Finish()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if first == nil {
						first = got
					} else if !slices.Equal(got.Intervals, first.Intervals) ||
						!slices.EqualFunc(got.Vectors, first.Vectors, func(a, b StateVector) bool {
							return a.Key == b.Key && slices.Equal(a.Active, b.Active)
						}) {
						t.Fatalf("%s: intervals or vectors differ from the %s feed", name, feeds[0].name)
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

					if got.RegressionErr == nil {
						fitted++
					} else if shape.name == "one-of-two" && got.RegressionErr.Error() != "analysis: 2 state groups cannot constrain 3 coefficients" {
						t.Fatalf("%s: regression error %v, want 2 groups against 3 coefficients", name, got.RegressionErr)
					}
					checkSameAnalysis(t, name, sa, got, want)
					kernel.add(want, len(got.ByActivity))

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
		}
	}
	// The generator must reach the paths the check is about.
	if fitted == 0 || rebound == 0 || overlaps == 0 || wrapped == 0 || lateTop == 0 {
		t.Errorf("coverage: %d fitted regressions, %d rebound proxy segments, %d overlapping label sets, %d wrapped clocks, %d logs naming their top single-activity resource only after the first batch of 7",
			fitted, rebound, overlaps, wrapped, lateTop)
	}
	if k := kernel; k.manyLabels == 0 || k.manyStates == 0 || k.unattributed == 0 || k.emptyTimeline == 0 || k.uncovered == 0 || k.bothTimelines == 0 || k.emptySet == 0 || k.constOnly == 0 {
		t.Errorf("kernel coverage: %d breakdowns over 64 labels, %d resources in over 8 states, %d charged resources without an activity timeline, %d with one that has no segment, %d drawing power before their timeline starts, %d with both kinds, %d with an empty label set over a charged state, %d constant-only models",
			k.manyLabels, k.manyStates, k.unattributed, k.emptyTimeline, k.uncovered, k.bothTimelines, k.emptySet, k.constOnly)
	}
}

// TestStreamAnalyzerResetMatchesFresh feeds the random logs through one
// analyzer, reset between logs, and checks every Analysis against a fresh
// analyzer's, exactly. The order makes the reset tables forget something
// each time: a log over fewer resources follows one over more, a log with
// multi-activity entries follows one without, and a one-entry log in the
// middle must fail with a fresh analyzer's error. The first log ends with
// pulses carried over a zero-length gap, which the next must not inherit.
// Each log also runs under its own node id, meter quantum and voltage, and
// the logs alternate between a dictionary that marks the random logs' proxy
// labels and one that marks none, as runs with different dictionaries do
// when one analyzer serves them all.
func TestStreamAnalyzerResetMatchesFresh(t *testing.T) {
	dict := core.NewDictionary()
	dicts := []*core.Dictionary{dict, core.NewDictionary()}
	opts := DefaultOptions()
	// narrow keeps a log's power-state and single-activity entries on
	// resources below 42 and drops its multi-activity entries.
	narrow := func(es []core.Entry) []core.Entry {
		return slices.DeleteFunc(slices.Clone(es), func(e core.Entry) bool {
			return e.Res >= 42 || e.Type == core.EntryActivityAdd || e.Type == core.EntryActivityRemove
		})
	}
	var logs [][]core.Entry
	for seed := int64(1); seed <= 6; seed++ {
		l := randomLog(rand.New(rand.NewSource(seed)), dict, 8.33, narrowShape)
		if seed%2 == 0 {
			l = narrow(l)
		}
		if seed == 1 {
			last := l[len(l)-1]
			last.IC += 3
			l = append(l, last)
		}
		logs = append(logs, l)
		if seed == 3 {
			logs = append(logs, l[:1])
		}
	}
	var reused *StreamAnalyzer
	for i, es := range logs {
		node, pulseUJ, volts := core.NodeID(i+1), 8.33/float64(1+i%2), units.Volts(3.0-0.3*float64(i%3))
		name := fmt.Sprintf("log %d (%d entries)", i, len(es))
		d := dicts[i%2]
		fresh := NewStreamAnalyzer(node, pulseUJ, volts, d, opts)
		fresh.RecordBatch(es)
		want, wantErr := fresh.Finish()
		if reused == nil {
			reused = NewStreamAnalyzer(0, 0, 0, nil, opts)
		}
		reused.Reset(node, pulseUJ, volts, d)
		reused.RecordBatch(es)
		got, err := reused.Finish()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, want %v", name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Node != want.Node || !sameBits(got.PulseUJ, want.PulseUJ) || got.Volts != want.Volts {
			t.Fatalf("%s: node %d (%v uJ, %v V), want node %d (%v uJ, %v V)", name,
				got.Node, got.PulseUJ, got.Volts, want.Node, want.PulseUJ, want.Volts)
		}
		if !slices.Equal(got.Intervals, want.Intervals) || !slices.EqualFunc(got.Vectors, want.Vectors, func(a, b StateVector) bool {
			return a.Key == b.Key && slices.Equal(a.Active, b.Active)
		}) {
			t.Fatalf("%s: intervals or vectors differ from a fresh analyzer's", name)
		}
		checkSameAnalysis(t, name, reused, got, refNodeOf(want))
		// Label sets never reach an Analysis by index, so compare the
		// tables: the reused one must not keep an earlier log's sets. (A
		// fresh analyzer creates its table, set 0 being the empty set, at
		// its first multi-activity entry; a reset one keeps set 0.)
		if n, w := len(reused.tlb.sets.sets), max(len(fresh.tlb.sets.sets), 1); n != w {
			t.Errorf("%s: %d interned label sets, a fresh analyzer has %d", name, n, w)
		}
	}
	// The sequence must shrink what the reset tables span and bring back
	// the multi-activity path, or it tests nothing.
	wide := func(e core.Entry) bool { return e.Res >= 42 }
	multi := func(e core.Entry) bool { return e.Type == core.EntryActivityAdd }
	if !slices.ContainsFunc(logs[0], wide) || slices.ContainsFunc(logs[1], wide) ||
		slices.ContainsFunc(logs[1], multi) || !slices.ContainsFunc(logs[2], multi) || len(logs[3]) != 1 {
		t.Fatal("log order does not exercise the reset")
	}
}
