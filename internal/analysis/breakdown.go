package analysis

import (
	"sort"

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

// Options configures a full analysis pass.
type Options struct {
	Regression RegressionOptions
	Split      SplitPolicy
	// ResolveProxies charges bound proxy usage to the activity it was bound
	// to (the accounting view). The raw labels remain available for
	// timeline rendering either way.
	ResolveProxies bool
}

// DefaultOptions mirrors the paper's choices.
func DefaultOptions() Options {
	return Options{
		Regression:     DefaultRegressionOptions(),
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

	Intervals []StateInterval
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

func (a *Analysis) ownerOf(seg Segment) core.Label {
	if a.Opts.ResolveProxies {
		return seg.Owner
	}
	return seg.Label
}

// TimeByActivity returns, for each resource with an activity timeline, the
// time each activity held it — Table 3(a). Durations are in microseconds.
func (a *Analysis) TimeByActivity() map[core.ResourceID]map[core.Label]int64 {
	out := make(map[core.ResourceID]map[core.Label]int64)
	for res, tl := range a.Single {
		m := make(map[core.Label]int64)
		for _, s := range tl.Segs {
			m[a.ownerOf(s)] += s.End - s.Start
		}
		out[res] = m
	}
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
	out := make([]core.ResourceID, 0, len(a.States))
	for res := range a.States {
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
// reported under ConstLabel.
func (a *Analysis) EnergyByActivity() map[core.Label]float64 {
	out := make(map[core.Label]float64)

	for _, res := range a.stateResources() {
		for _, seg := range a.States[res] {
			if seg.State == 0 {
				continue
			}
			mw, ok := a.Reg.PowerMW[Predictor{res, seg.State}]
			if !ok {
				continue
			}
			a.chargeWindow(res, seg.Start, seg.End, mw, out)
		}
	}
	out[ConstLabel] += a.Reg.ConstMW * float64(a.Span()) / 1000
	return out
}

// chargeWindow distributes mw over [start, end) according to res's activity
// timeline. Segments follow one another in time, so the scan starts at the
// first one ending after start and stops at the first one starting at end:
// a whole breakdown stays linear in the log instead of quadratic.
func (a *Analysis) chargeWindow(res core.ResourceID, start, end int64, mw float64, out map[core.Label]float64) {
	charge := func(l core.Label, us int64) {
		if us > 0 {
			out[l] += mw * float64(us) / 1000
		}
	}
	if tl := a.Single[res]; tl != nil {
		first := sort.Search(len(tl.Segs), func(i int) bool { return tl.Segs[i].End > start })
		for _, s := range tl.Segs[first:] {
			if s.Start >= end {
				break
			}
			lo, hi := maxi64(s.Start, start), mini64(s.End, end)
			if hi > lo {
				charge(a.ownerOf(s), hi-lo)
			}
		}
		return
	}
	if mt := a.Multi[res]; mt != nil {
		first := sort.Search(len(mt.Segs), func(i int) bool { return mt.Segs[i].End > start })
		for _, s := range mt.Segs[first:] {
			if s.Start >= end {
				break
			}
			lo, hi := maxi64(s.Start, start), mini64(s.End, end)
			if hi <= lo {
				continue
			}
			switch {
			case len(s.Labels) == 0:
				charge(ConstLabel, hi-lo) // unattributed hardware-on time
			case a.Opts.Split == SplitFirst:
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

// TotalEnergyUJ returns the meter-observed energy over the span.
func (a *Analysis) TotalEnergyUJ() float64 {
	return float64(a.TotalPulses) * a.Trace.PulseUJ
}

// LabelsInUse returns every activity label that appears in the breakdowns,
// sorted, for stable report rendering.
func (a *Analysis) LabelsInUse() []core.Label {
	set := make(map[core.Label]struct{})
	for _, m := range a.TimeByActivity() {
		for l := range m {
			set[l] = struct{}{}
		}
	}
	out := make([]core.Label, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AveragePowerMW returns the mean measured power over the span.
func (a *Analysis) AveragePowerMW() float64 {
	span := a.Span()
	if span == 0 {
		return 0
	}
	return a.TotalEnergyUJ() / float64(span) * 1000
}

// AverageCurrentMA returns the mean measured current over the span.
func (a *Analysis) AverageCurrentMA() float64 {
	return a.AveragePowerMW() / float64(a.Trace.Volts)
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
