package analysis

import (
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/units"
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

// Analysis bundles everything derived from one node's log:
// StreamAnalyzer.Finish's result.
type Analysis struct {
	// Node is the node the log came from, PulseUJ its meter's energy
	// quantum and Volts its supply voltage.
	Node    core.NodeID
	PulseUJ float64
	Volts   units.Volts
	Dict    *core.Dictionary
	Opts    Options

	// StartUS/EndUS bound the analyzed window (unwrapped microseconds) and
	// TotalPulses is the meter delta across it.
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

	// Single, Multi and States are the activity and power-state timelines,
	// indexed by resource id. A resource that logged no entry of a kind
	// has an empty entry there, and each table may run past the node's
	// highest resource id.
	Single []ActTimeline
	Multi  []MultiTimeline
	States [][]StateSegment

	// ByActivity is the energy charged to each activity, Table 3(d), in
	// the order the labels were first charged, with the constant term's
	// energy under ConstLabel.
	ByActivity []LabelEnergy
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
	for i := range a.Single {
		tl := &a.Single[i]
		if !tl.seen {
			continue
		}
		m := make(map[core.Label]int64)
		for _, s := range tl.Segs {
			m[a.Opts.owner(s)] += s.End - s.Start
		}
		out[tl.Res] = m
	}
	for i := range a.Multi {
		mt := &a.Multi[i]
		if !mt.seen {
			continue
		}
		m := out[mt.Res]
		if m == nil {
			m = make(map[core.Label]int64)
			out[mt.Res] = m
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
	if int(res) >= len(a.States) {
		return 0
	}
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

// EnergyByResource distributes the regression's fitted powers over the
// power-state timelines: for each predictor, energy = Pi * time-in-state;
// the constant term covers the whole span — Table 3(c). Energies in uJ,
// keyed by resource, with the constant under power.ResBaseline's companion
// ConstLabel row via the second return value.
func (a *Analysis) EnergyByResource() (map[core.ResourceID]float64, float64) {
	out := make(map[core.ResourceID]float64)
	for i, segs := range a.States {
		res := core.ResourceID(i)
		for _, seg := range segs {
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

// EnergyByActivity returns ByActivity as a map from label to energy in uJ —
// Table 3(d) — with the constant term's energy under ConstLabel.
func (a *Analysis) EnergyByActivity() map[core.Label]float64 {
	out := make(map[core.Label]float64, len(a.ByActivity))
	for _, s := range a.ByActivity {
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
// ascending id (see node), it charges each resource's fitted power, one
// non-baseline state segment at a time, to whichever activity held the
// resource, and sums the charges per label; finish adds the constant term
// last. Each label gets the additions a map keyed by label would get, in
// the same order, so the sums match such a map bit for bit. A charger keeps
// its tables from node to node.
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

// node charges every resource of a, whose model is a.Reg, and returns the
// node's sums (see finish).
func (c *charger) node(a *Analysis) []LabelEnergy {
	c.opts, c.reg = a.Opts, a.Reg
	c.sums.reset()
	for i, states := range a.States {
		var single *ActTimeline
		var multi *MultiTimeline
		if i < len(a.Single) && a.Single[i].seen {
			single = &a.Single[i]
		}
		if i < len(a.Multi) && a.Multi[i].seen {
			multi = &a.Multi[i]
		}
		c.resource(core.ResourceID(i), states, single, multi)
	}
	return c.finish(a.Span())
}

// resource charges one resource's state segments, which follow one another
// in time. A single-activity timeline, if the resource has one, says who
// held it; else a multi-activity one; a resource with neither is
// unattributed and charged to ConstLabel, while a stretch its timeline has
// no segment over is charged to no one. Timeline segments also follow one
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
	return float64(a.TotalPulses) * a.PulseUJ
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
