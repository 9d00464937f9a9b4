package analysis

import (
	"sort"

	"repro/internal/core"
)

// OnlineAccountant implements the paper's proposed real-time tracking
// extension (Section 5.3): instead of logging every event for offline
// processing, it folds the event stream into fixed-size per-activity
// accumulators of time and energy on the node, "an always on, network-wide
// energy profiler analogous to top".
//
// It consumes the same event stream a log sink would (implement core.Sink or
// feed entries manually), tracking for every resource the current activity
// and charging elapsed time and measured energy to it as events arrive.
// Energy between two events is attributed to the activities holding
// resources during that gap, split by the share policy over the resources'
// current draw estimate.
//
// Memory is O(activities x resources) regardless of run length — the
// trade-off against full logs discussed in Section 5.1 (logging vs
// counting).
type OnlineAccountant struct {
	node    core.NodeID
	pulseUJ float64

	// powerModel estimates each (res,state) draw in mW, typically from a
	// previous offline regression or the datasheet; used to apportion the
	// aggregate measured energy between concurrently active resources.
	powerModel map[Predictor]float64

	lastTime uint32
	lastIC   uint32
	started  bool

	// Current state per resource.
	curState map[core.ResourceID]core.PowerState
	curAct   map[core.ResourceID]core.Label
	curMulti map[core.ResourceID]map[core.Label]struct{}

	timeUS   map[core.Label]int64
	energyUJ map[core.Label]float64
	baseUJ   float64 // energy not attributable to any modeled resource

	// sortedRes caches curState's keys in ascending order (resources are
	// only ever added), and shares is charge's reusable scratch buffer —
	// together they keep the per-event path allocation-free.
	sortedRes []core.ResourceID
	shares    []share

	events uint64
}

type share struct {
	labels []core.Label
	mw     float64
}

// NewOnlineAccountant creates an accountant for one node. powerModel may be
// nil, in which case all measured energy lands in the Baseline bucket and
// only time is attributed per activity.
func NewOnlineAccountant(node core.NodeID, pulseUJ float64, powerModel map[Predictor]float64) *OnlineAccountant {
	return &OnlineAccountant{
		node:       node,
		pulseUJ:    pulseUJ,
		powerModel: powerModel,
		curState:   make(map[core.ResourceID]core.PowerState),
		curAct:     make(map[core.ResourceID]core.Label),
		curMulti:   make(map[core.ResourceID]map[core.Label]struct{}),
		timeUS:     make(map[core.Label]int64),
		energyUJ:   make(map[core.Label]float64),
	}
}

// Record implements core.Sink: it consumes one event and never rejects it.
func (o *OnlineAccountant) Record(e core.Entry) bool {
	o.events++
	if o.started {
		dt := int64(e.Time - o.lastTime) // wraps correctly in uint32 space
		dE := float64(e.IC-o.lastIC) * o.pulseUJ
		if dt > 0 {
			o.charge(dt, dE)
		} else {
			o.baseUJ += dE
		}
	}
	o.started = true
	o.lastTime = e.Time
	o.lastIC = e.IC
	o.observe(e)
	return true
}

// RecordBatch implements core.BatchSink, folding a whole batch into the
// accumulators.
func (o *OnlineAccountant) RecordBatch(entries []core.Entry) int {
	for _, e := range entries {
		o.Record(e)
	}
	return len(entries)
}

// charge distributes the interval's time and energy.
func (o *OnlineAccountant) charge(dtUS int64, dUJ float64) {
	// Wall time accrues to the CPU's current activity: the CPU is what the
	// paper's tables report, so only resource CPU time counts toward the
	// per-activity time totals here (resource 0 by convention of the
	// platform tables).
	if l, ok := o.curAct[0]; ok {
		o.timeUS[l] += dtUS
	}
	// Energy: apportioned by the power model over active states. With no
	// model there is nothing to apportion against — all energy is baseline.
	if len(o.powerModel) == 0 {
		o.baseUJ += dUJ
		return
	}
	var modeledMW float64
	shares := o.shares[:0]
	for _, res := range o.sortedRes {
		st := o.curState[res]
		if st == 0 {
			continue
		}
		mw, ok := o.powerModel[Predictor{res, st}]
		if !ok || mw <= 0 {
			continue
		}
		modeledMW += mw
		// Grow into the retained backing array so each slot's labels slice
		// keeps its capacity across events — steady state allocates nothing.
		if len(shares) < cap(shares) {
			shares = shares[:len(shares)+1]
		} else {
			shares = append(shares, share{})
		}
		s := &shares[len(shares)-1]
		s.mw = mw
		s.labels = s.labels[:0]
		if set, ok := o.curMulti[res]; ok && len(set) > 0 {
			for l := range set {
				s.labels = append(s.labels, l)
			}
			sort.Slice(s.labels, func(i, j int) bool { return s.labels[i] < s.labels[j] })
		} else if l, ok := o.curAct[res]; ok {
			s.labels = append(s.labels, l)
		}
	}
	o.shares = shares

	if modeledMW <= 0 || dUJ <= 0 {
		o.baseUJ += dUJ
		return
	}
	// The modeled fraction of the measured energy is split across active
	// resources proportionally to their modeled draw; the remainder
	// (baseline, model error) stays unattributed.
	modeledUJ := modeledMW * float64(dtUS) / 1000
	if modeledUJ > dUJ {
		modeledUJ = dUJ
	}
	o.baseUJ += dUJ - modeledUJ
	for _, s := range shares {
		part := modeledUJ * s.mw / modeledMW
		switch {
		case len(s.labels) == 0:
			o.baseUJ += part
		default:
			for _, l := range s.labels {
				o.energyUJ[l] += part / float64(len(s.labels))
			}
		}
	}
}

// observe applies the activity bookkeeping of one entry.
func (o *OnlineAccountant) observe(e core.Entry) {
	switch e.Type {
	case core.EntryPowerState:
		if _, seen := o.curState[e.Res]; !seen {
			o.sortedRes = insertResSorted(o.sortedRes, e.Res)
		}
		o.curState[e.Res] = e.State()
	case core.EntryActivitySet, core.EntryActivityBind:
		o.curAct[e.Res] = e.Label()
	case core.EntryActivityAdd:
		set := o.curMulti[e.Res]
		if set == nil {
			set = make(map[core.Label]struct{})
			o.curMulti[e.Res] = set
		}
		set[e.Label()] = struct{}{}
	case core.EntryActivityRemove:
		delete(o.curMulti[e.Res], e.Label())
	}
}

// insertResSorted inserts res into the ascending ids slice, keeping order.
// The caller checks for prior membership.
func insertResSorted(ids []core.ResourceID, res core.ResourceID) []core.ResourceID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= res })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = res
	return ids
}

// TimeUS returns the accumulated wall time per activity (CPU view).
func (o *OnlineAccountant) TimeUS() map[core.Label]int64 {
	out := make(map[core.Label]int64, len(o.timeUS))
	for k, v := range o.timeUS {
		out[k] = v
	}
	return out
}

// EnergyUJ returns the accumulated attributed energy per activity.
func (o *OnlineAccountant) EnergyUJ() map[core.Label]float64 {
	out := make(map[core.Label]float64, len(o.energyUJ))
	for k, v := range o.energyUJ {
		out[k] = v
	}
	return out
}

// BaselineUJ returns energy not attributed to any activity (constant draw
// plus model error).
func (o *OnlineAccountant) BaselineUJ() float64 { return o.baseUJ }

// TotalUJ returns all energy seen.
func (o *OnlineAccountant) TotalUJ() float64 {
	total := o.baseUJ
	for _, v := range o.energyUJ {
		total += v
	}
	return total
}

// Events returns how many events were consumed.
func (o *OnlineAccountant) Events() uint64 { return o.events }

// Top renders the accumulators like the Unix top utility, sorted by energy.
func (o *OnlineAccountant) Top(dict *core.Dictionary, n int) []TopRow {
	rows := make([]TopRow, 0, len(o.energyUJ))
	labels := make([]core.Label, 0, len(o.energyUJ))
	for l := range o.energyUJ {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return o.energyUJ[labels[i]] > o.energyUJ[labels[j]] })
	for _, l := range labels {
		rows = append(rows, TopRow{
			Label:    l,
			Name:     dict.LabelName(l),
			EnergyUJ: o.energyUJ[l],
			TimeUS:   o.timeUS[l],
		})
		if n > 0 && len(rows) >= n {
			break
		}
	}
	return rows
}

// TopRow is one line of the energy-top display.
type TopRow struct {
	Label    core.Label
	Name     string
	EnergyUJ float64
	TimeUS   int64
}
