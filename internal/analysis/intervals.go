// Package analysis is the offline half of Quanto: it turns a node's event
// log into power-state intervals, runs the weighted least-squares regression
// that disaggregates the board's energy by hardware component (Section 2.5),
// resolves proxy activities through bind entries, and produces the time and
// energy breakdowns of Table 3 plus the reconstructed power traces of
// Figure 11(c).
package analysis

import (
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/units"
)

// NodeTrace is one node's log prepared for analysis: timestamps unwrapped to
// 64-bit microseconds and metadata needed to convert pulses to joules.
type NodeTrace struct {
	Node    core.NodeID
	Entries []core.Entry
	Times   []int64 // unwrapped, parallel to Entries

	PulseUJ float64
	Volts   units.Volts
}

// NewNodeTrace wraps a log. PulseUJ is the meter's energy quantum and volts
// the supply voltage (needed to express power draws as currents).
func NewNodeTrace(node core.NodeID, entries []core.Entry, pulseUJ float64, volts units.Volts) *NodeTrace {
	return &NodeTrace{
		Node:    node,
		Entries: entries,
		Times:   trace.UnwrapTimes(entries),
		PulseUJ: pulseUJ,
		Volts:   volts,
	}
}

// Start returns the first entry's time, or 0 for an empty log.
func (t *NodeTrace) Start() int64 {
	if len(t.Times) == 0 {
		return 0
	}
	return t.Times[0]
}

// End returns the last entry's time, or 0 for an empty log. Harnesses stamp
// a final marker at the end of a run so this covers the full window.
func (t *NodeTrace) End() int64 {
	if len(t.Times) == 0 {
		return 0
	}
	return t.Times[len(t.Times)-1]
}

// StateInterval is one stretch of time during which no logged event
// occurred: the power states of all sinks are constant, Pulses energy
// quanta were consumed, and the interval lasted End-Start microseconds. Vec
// indexes the interned state vector in effect (Analysis.Vectors, or the
// vectors returned beside the intervals). The record is 24 bytes and holds
// no pointers, so a long log's intervals cost the garbage collector nothing
// to scan.
type StateInterval struct {
	Start, End int64
	Pulses     uint32
	Vec        uint32
}

// Duration returns the interval length in microseconds.
func (iv StateInterval) Duration() int64 { return iv.End - iv.Start }

// EnergyUJ converts the interval's pulse count to energy.
func (iv StateInterval) EnergyUJ(pulseUJ float64) float64 {
	return float64(iv.Pulses) * pulseUJ
}

// StateVector is one distinct vector of the sinks' power states, interned
// once per log and shared by every interval spent in it.
type StateVector struct {
	// Key is a canonical fingerprint of the non-zero states, "res=state;"
	// per resource in ascending order, used for grouping.
	Key string
	// Active lists the non-baseline (resource, state) pairs in ascending
	// resource order. Regression groups share the slice; do not mutate.
	Active []Predictor
}

// State returns res's power state in the vector; resources at the zero
// (baseline) state are absent from Active.
func (v StateVector) State(res core.ResourceID) core.PowerState {
	for _, p := range v.Active {
		if p.Res == res {
			return p.State
		}
	}
	return 0
}

// IntervalBuilder slices an event stream into state intervals incrementally,
// one entry at a time — the single-pass core behind StateIntervals. Feed
// entries in log order with their unwrapped timestamps; Intervals returns
// everything closed so far and Vectors the state vectors they index.
// Zero-length gaps (several entries at one microsecond) are skipped; their
// pulses carry into the following interval.
//
// The power states live in a table indexed by resource id. Every real state
// change moves the current vector along a learned edge (see edges), so once
// a log's vectors and transitions have been seen, building intervals
// neither hashes nor allocates beyond growing the interval slice.
type IntervalBuilder struct {
	states  []core.PowerState // by resource id
	cur     uint32            // the current vector, an index into vecs
	vecs    []StateVector
	edges   edges             // per vector; key packs (res, state)
	byKey   map[string]uint32 // consulted only when an edge is learned
	keyBuf  []byte
	out     []StateInterval
	carry   uint32
	prev    core.Entry
	prevAt  int64
	started bool
}

// NewIntervalBuilder returns an empty builder whose current vector is the
// all-baseline one.
func NewIntervalBuilder() *IntervalBuilder {
	return &IntervalBuilder{
		vecs:  []StateVector{{}},
		edges: edges{nil},
		byKey: map[string]uint32{"": 0},
	}
}

// setState records a resource's power state and moves to the resulting
// vector.
func (b *IntervalBuilder) setState(res core.ResourceID, st core.PowerState) {
	if int(res) >= len(b.states) {
		if st == 0 {
			return // an untracked resource is already at the baseline
		}
		b.states = grow(b.states, int(res))
	}
	if b.states[res] == st {
		return
	}
	b.states[res] = st
	key := uint32(res)<<16 | uint32(st)
	to, ok := b.edges.find(b.cur, key)
	if !ok {
		to = b.intern()
		b.edges.learn(b.cur, key, to)
	}
	b.cur = to
}

// intern returns the index of the vector the state table holds, adding it
// on first sight.
func (b *IntervalBuilder) intern() uint32 {
	buf := b.keyBuf[:0]
	for r, s := range b.states {
		if s != 0 {
			buf = strconv.AppendUint(buf, uint64(r), 10)
			buf = append(buf, '=')
			buf = strconv.AppendUint(buf, uint64(s), 10)
			buf = append(buf, ';')
		}
	}
	b.keyBuf = buf
	if v, ok := b.byKey[string(buf)]; ok {
		return v
	}
	var active []Predictor
	for r, s := range b.states {
		if s != 0 {
			active = append(active, Predictor{core.ResourceID(r), s})
		}
	}
	v := uint32(len(b.vecs))
	key := string(buf)
	b.vecs = append(b.vecs, StateVector{Key: key, Active: active})
	b.edges = append(b.edges, nil)
	b.byKey[key] = v
	return v
}

// Add consumes the next entry, stamped with its unwrapped time. The interval
// between the previous entry and this one is closed and recorded.
func (b *IntervalBuilder) Add(e core.Entry, at int64) {
	if b.started {
		p := b.prev
		if p.Type == core.EntryPowerState {
			b.setState(p.Res, p.State())
		}
		pulses := e.IC - p.IC // uint32 arithmetic handles wrap
		if at == b.prevAt {
			b.carry += pulses
		} else {
			b.out = append(b.out, StateInterval{
				Start:  b.prevAt,
				End:    at,
				Pulses: pulses + b.carry,
				Vec:    b.cur,
			})
			b.carry = 0
		}
	}
	b.prev, b.prevAt, b.started = e, at, true
}

// Intervals returns the intervals closed so far. The returned slice is the
// builder's own; do not Add after using it.
func (b *IntervalBuilder) Intervals() []StateInterval { return b.out }

// Vectors returns the interned state vectors the intervals index. Some may
// have no interval: a vector passed through within one microsecond.
func (b *IntervalBuilder) Vectors() []StateVector { return b.vecs }

// edges memoizes an interner's transitions: for each interned item, the
// (change, resulting item) pairs seen so far. Logs cycle through a handful
// of state vectors and label sets, so after warm-up a change is resolved by
// a short scan, with no key built, hashed or allocated.
type edges [][]edge

type edge struct{ key, to uint32 }

func (es edges) find(from, key uint32) (uint32, bool) {
	for _, e := range es[from] {
		if e.key == key {
			return e.to, true
		}
	}
	return 0, false
}

func (es edges) learn(from, key, to uint32) { es[from] = append(es[from], edge{key, to}) }

// grow returns s extended to hold index i. Capacity grows geometrically and
// the slice always spans it, so a per-resource table reaches the highest
// resource id in a few steps rather than one slot at a time.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	s = slices.Grow(s, i+1-len(s))
	return s[:cap(s)]
}

// StateIntervals slices the log into intervals between consecutive entries,
// each annotated with the in-effect power-state vector and the energy used,
// and returns them with the vectors they index. It is the batch wrapper over
// IntervalBuilder.
func (t *NodeTrace) StateIntervals() ([]StateInterval, []StateVector) {
	b := NewIntervalBuilder()
	for i, e := range t.Entries {
		b.Add(e, t.Times[i])
	}
	return b.Intervals(), b.Vectors()
}

// TotalPulses returns the pulse count between the first and last entry.
func (t *NodeTrace) TotalPulses() uint32 {
	if len(t.Entries) < 2 {
		return 0
	}
	return t.Entries[len(t.Entries)-1].IC - t.Entries[0].IC
}

// TotalEnergyUJ returns the energy the meter observed across the log.
func (t *NodeTrace) TotalEnergyUJ() float64 {
	return float64(t.TotalPulses()) * t.PulseUJ
}
