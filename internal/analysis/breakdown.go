package analysis

import (
	"maps"
	"slices"

	"repro/internal/core"
)

// SplitPolicy decides how a multi-activity device's consumption divides
// among its concurrent activities. The paper divides equally and notes other
// policies are possible (Section 3.4).
type SplitPolicy int

// Split policies.
const (
	// SplitEqual divides each interval evenly among the activities present.
	SplitEqual SplitPolicy = iota
	// SplitFirst charges everything to the first (lowest-labeled) activity.
	SplitFirst
)

// Options configures a full analysis pass. Each value is one of the
// paper's design choices, and an ablation exhibit in internal/experiments
// turns it off to show what it buys.
type Options struct {
	// Weighted selects the paper's regression weights w = sqrt(E*t);
	// without it every state group weighs the same.
	Weighted bool
	Split    SplitPolicy
	// ResolveProxies charges bound proxy usage to the activity it was bound
	// to (the accounting view). The raw labels remain available for
	// timeline rendering either way.
	ResolveProxies bool
}

// DefaultOptions mirrors the paper's choices.
func DefaultOptions() Options {
	return Options{
		Weighted:       true,
		Split:          SplitEqual,
		ResolveProxies: true,
	}
}

// ConstLabel is the pseudo-activity that carries the constant term's energy
// in per-activity tables, like the "Const." row of Table 3(d).
const ConstLabel core.Label = 0xFFFF

// Analysis bundles everything derived from one node's log.
type Analysis struct {
	// Trace carries the node's identity and meter parameters. When the
	// analysis came from the streaming path its Entries are nil — only the
	// summary fields below describe the log.
	Trace *NodeTrace
	Dict  *core.Dictionary
	Opts  Options

	// StartUS/EndUS bound the analyzed window (unwrapped microseconds) and
	// TotalPulses is the meter delta across it; they are valid whether the
	// analysis was computed from a slice or a stream.
	StartUS, EndUS int64
	TotalPulses    uint32

	// Intervals slices the window between consecutive log entries; each
	// indexes Vectors, the log's distinct power-state vectors.
	Intervals []StateInterval
	Vectors   []StateVector
	Reg       *Regression

	// RegressionErr records why the full regression could not run (for
	// example, a log with no power-state variation). When set, Reg is a
	// degenerate constant-only model: all measured energy lands in the
	// constant term and per-state attribution is empty.
	RegressionErr error

	Single map[core.ResourceID]*ActTimeline
	Multi  map[core.ResourceID]*MultiTimeline
	States map[core.ResourceID][]StateSegment
}

// Analyze runs the full offline pipeline on one node's materialized log. It
// is a thin wrapper over the single-pass StreamAnalyzer, kept for callers
// that already hold the entries as a slice.
func Analyze(t *NodeTrace, dict *core.Dictionary, opts Options) (*Analysis, error) {
	sa := NewStreamAnalyzer(t.Node, t.PulseUJ, t.Volts, dict, opts)
	sa.RecordBatch(t.Entries)
	a, err := sa.Finish()
	if err != nil {
		return nil, err
	}
	a.Trace = t // keep the materialized log reachable for slice-based callers
	return a, nil
}

// owner returns the label a single-activity segment is charged to: its
// owner after proxy resolution, or its raw label without it.
func (o Options) owner(seg Segment) core.Label {
	if o.ResolveProxies {
		return seg.Owner
	}
	return seg.Label
}

// TimeByActivity returns, for each resource with an activity timeline, the
// time each activity held it — Table 3(a). Durations are in microseconds.
func (a *Analysis) TimeByActivity() map[core.ResourceID]map[core.Label]int64 {
	out := make(map[core.ResourceID]map[core.Label]int64)
	//quanto:ordered each resource fills its own inner map with integer sums
	for res, tl := range a.Single {
		m := make(map[core.Label]int64)
		for _, s := range tl.Segs {
			m[a.Opts.owner(s)] += s.End - s.Start
		}
		out[res] = m
	}
	//quanto:ordered each resource adds integers into its own inner map
	for res, mt := range a.Multi {
		m := out[res]
		if m == nil {
			m = make(map[core.Label]int64)
			out[res] = m
		}
		for _, s := range mt.Segs {
			dur := s.End - s.Start
			switch {
			case len(s.Labels) == 0:
				// Device idle; charge nothing.
			case a.Opts.Split == SplitFirst:
				m[s.Labels[0]] += dur
			default:
				share := dur / int64(len(s.Labels))
				for _, l := range s.Labels {
					m[l] += share
				}
			}
		}
	}
	return out
}

// ActiveTimeUS returns how long res spent in non-baseline power states.
func (a *Analysis) ActiveTimeUS(res core.ResourceID) int64 {
	var total int64
	for _, seg := range a.States[res] {
		if seg.State != 0 {
			total += seg.End - seg.Start
		}
	}
	return total
}

// Span returns the analyzed window in microseconds.
func (a *Analysis) Span() int64 { return a.EndUS - a.StartUS }

// stateResources returns the resources with power-state timelines in a
// fixed order, so floating-point accumulation is deterministic run to run.
func (a *Analysis) stateResources() []core.ResourceID {
	return slices.Sorted(maps.Keys(a.States))
}

// EnergyByResource distributes the regression's fitted powers over the
// power-state timelines: for each predictor, energy = Pi * time-in-state;
// the constant term covers the whole span — Table 3(c). Energies in uJ,
// keyed by resource, with the constant under power.ResBaseline's companion
// ConstLabel row via the second return value.
func (a *Analysis) EnergyByResource() (map[core.ResourceID]float64, float64) {
	out := make(map[core.ResourceID]float64)
	for _, res := range a.stateResources() {
		for _, seg := range a.States[res] {
			if seg.State == 0 {
				continue
			}
			p := Predictor{res, seg.State}
			mw, ok := a.Reg.PowerMW[p]
			if !ok {
				continue
			}
			out[res] += mw * float64(seg.End-seg.Start) / 1000 // mW*us -> uJ
		}
	}
	constUJ := a.Reg.ConstMW * float64(a.Span()) / 1000
	return out, constUJ
}

// EnergyByActivity charges each resource's fitted power to the activity that
// held the resource at the time — Table 3(d). The constant term's energy is
// reported under ConstLabel. It runs the charging kernel StreamAnalyzer's
// Breakdown runs, over the Analysis's timelines.
func (a *Analysis) EnergyByActivity() map[core.Label]float64 {
	var c charger
	c.reset(a.Opts, a.Reg)
	for _, res := range a.stateResources() {
		c.resource(res, a.States[res], a.Single[res], a.Multi[res])
	}
	sums := c.finish(a.Span())
	out := make(map[core.Label]float64, len(sums))
	for _, s := range sums {
		out[s.Label] = s.UJ
	}
	return out
}

// LabelEnergy is the energy, in microjoules, charged to one activity label.
type LabelEnergy struct {
	Label core.Label
	UJ    float64
}

// charger is the breakdown's charging kernel. Fed a node's resources in
// ascending id, it charges each resource's fitted power, one non-baseline
// state segment at a time, to whichever activity held the resource, and sums
// the charges per label; finish adds the constant term last. Each label gets
// the additions a map keyed by label would get, in the same order, so the
// sums match such a map bit for bit. A charger keeps its tables across
// reset.
type charger struct {
	opts Options
	reg  *Regression
	sums labelSums
	// memo caches the fitted power of the states the current resource has
	// met; a resource with more states looks the rest up every time.
	memo  [8]fittedState
	nmemo int
}

type fittedState struct {
	state core.PowerState
	mw    float64
	ok    bool
}

// reset readies the charger for a node whose model is reg.
func (c *charger) reset(opts Options, reg *Regression) {
	c.opts, c.reg = opts, reg
	c.sums.reset()
}

// resource charges one resource's state segments, which follow one another
// in time. A single-activity timeline, if the resource has one, says who
// held it; else a multi-activity one; a resource with neither is
// unattributed and charged to ConstLabel. Timeline segments also follow one
// another with strictly increasing ends, so the first segment overlapping a
// state segment is found by a cursor that only moves forward: the whole
// resource costs one pass over each timeline.
func (c *charger) resource(res core.ResourceID, states []StateSegment, single *ActTimeline, multi *MultiTimeline) {
	c.nmemo = 0
	next := 0 // the first timeline segment ending after the current start
	for _, seg := range states {
		if seg.State == 0 {
			continue
		}
		mw, ok := c.power(res, seg.State)
		if !ok {
			continue
		}
		start, end := seg.Start, seg.End
		switch {
		case single != nil:
			segs := single.Segs
			for next < len(segs) && segs[next].End <= start {
				next++
			}
			for _, s := range segs[next:] {
				if s.Start >= end {
					break
				}
				c.charge(c.opts.owner(s), mw, min(s.End, end)-max(s.Start, start))
			}
		case multi != nil:
			segs := multi.Segs
			for next < len(segs) && segs[next].End <= start {
				next++
			}
			for _, s := range segs[next:] {
				if s.Start >= end {
					break
				}
				us := min(s.End, end) - max(s.Start, start)
				switch {
				case us <= 0:
				case len(s.Labels) == 0:
					c.charge(ConstLabel, mw, us) // unattributed hardware-on time
				case c.opts.Split == SplitFirst:
					c.charge(s.Labels[0], mw, us)
				default:
					for _, l := range s.Labels {
						c.sums.add(l, mw*float64(us)/1000/float64(len(s.Labels)))
					}
				}
			}
		default:
			// No activity instrumentation on this resource: unattributed.
			c.charge(ConstLabel, mw, end-start)
		}
	}
}

// charge adds us microseconds at mw milliwatts to l's sum, if us > 0.
func (c *charger) charge(l core.Label, mw float64, us int64) {
	if us > 0 {
		c.sums.add(l, mw*float64(us)/1000) // mW*us -> uJ
	}
}

// power returns the fitted draw of res in state st, if the model has one.
func (c *charger) power(res core.ResourceID, st core.PowerState) (float64, bool) {
	for _, f := range c.memo[:c.nmemo] {
		if f.state == st {
			return f.mw, f.ok
		}
	}
	mw, ok := c.reg.PowerMW[Predictor{res, st}]
	if c.nmemo < len(c.memo) {
		c.memo[c.nmemo] = fittedState{st, mw, ok}
		c.nmemo++
	}
	return mw, ok
}

// finish adds the constant term's energy over a span of spanUS to
// ConstLabel and returns the node's sums, in the order their labels were
// first charged. They belong to the charger and change at its next reset.
func (c *charger) finish(spanUS int64) []LabelEnergy {
	c.sums.add(ConstLabel, c.reg.ConstMW*float64(spanUS)/1000)
	return c.sums.pairs
}

// labelSums sums per label without a Go map: an open-addressed table over
// the 16-bit label indexes pairs, which holds the sums in the order their
// labels first appeared. The table starts at 64 slots and doubles whenever
// it is half full. A label's sum starts at zero and takes every addition in
// turn, exactly as a map entry would.
type labelSums struct {
	slots []int32 // 1 + the index in pairs of the slot's label; 0 if empty
	pairs []LabelEnergy
}

func (ls *labelSums) reset() {
	clear(ls.slots)
	ls.pairs = ls.pairs[:0]
}

func (ls *labelSums) add(l core.Label, uj float64) {
	if 2*len(ls.pairs) >= len(ls.slots) {
		ls.grow()
	}
	mask := uint32(len(ls.slots) - 1)
	h := labelHash(l) & mask
	for ls.slots[h] != 0 && ls.pairs[ls.slots[h]-1].Label != l {
		h = (h + 1) & mask
	}
	if ls.slots[h] == 0 {
		ls.pairs = append(ls.pairs, LabelEnergy{Label: l})
		ls.slots[h] = int32(len(ls.pairs))
	}
	ls.pairs[ls.slots[h]-1].UJ += uj
}

// grow doubles the table (to 64 slots at first) and re-enters every label.
func (ls *labelSums) grow() {
	ls.slots = make([]int32, max(64, 2*len(ls.slots)))
	mask := uint32(len(ls.slots) - 1)
	for i, p := range ls.pairs {
		h := labelHash(p.Label) & mask
		for ls.slots[h] != 0 {
			h = (h + 1) & mask
		}
		ls.slots[h] = int32(i + 1)
	}
}

// labelHash spreads a label's origin and activity bits over the low bits
// the table indexes by.
func labelHash(l core.Label) uint32 {
	h := uint32(l) * 0x9E3779B1
	return h ^ h>>16
}

// TotalEnergyUJ returns the meter-observed energy over the span.
func (a *Analysis) TotalEnergyUJ() float64 {
	return float64(a.TotalPulses) * a.Trace.PulseUJ
}

// LabelsInUse returns every activity label that appears in the breakdowns,
// sorted, for stable report rendering.
func (a *Analysis) LabelsInUse() []core.Label {
	set := make(map[core.Label]struct{})
	//quanto:ordered fills a set, which is sorted below
	for _, m := range a.TimeByActivity() {
		//quanto:ordered fills a set, which is sorted below
		for l := range m {
			set[l] = struct{}{}
		}
	}
	return slices.Sorted(maps.Keys(set))
}

// AveragePowerMW returns the mean measured power over the span.
func (a *Analysis) AveragePowerMW() float64 {
	span := a.Span()
	if span == 0 {
		return 0
	}
	return a.TotalEnergyUJ() / float64(span) * 1000
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mini64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
