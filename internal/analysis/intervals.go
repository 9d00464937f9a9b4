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
)

// StateInterval is one stretch of time during which no logged event
// occurred: the power states of all sinks are constant, Pulses energy
// quanta were consumed, and the interval lasted End-Start microseconds. Vec
// indexes the interned state vector in effect (Analysis.Vectors). The
// record is 24 bytes and holds no pointers, so a long log's intervals cost
// the garbage collector nothing to scan.
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

// intervalBuilder slices an event stream into state intervals incrementally,
// one entry at a time. Feed entries in log order with their unwrapped
// timestamps; out holds every interval closed so far and vecs the state
// vectors they index, some of which may have no interval: a vector passed
// through within one microsecond. Zero-length gaps (several entries at one
// microsecond) are skipped; their pulses carry into the following interval.
//
// The power states live in a table indexed by resource id. Every real state
// change moves the current vector along a learned edge (see edges), so once
// a log's vectors and transitions have been seen, building intervals
// neither hashes nor allocates beyond growing the interval slice.
type intervalBuilder struct {
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

// newIntervalBuilder returns an empty builder whose current vector is the
// all-baseline one.
func newIntervalBuilder() *intervalBuilder {
	return &intervalBuilder{
		vecs:  []StateVector{{}},
		edges: edges{nil},
		byKey: map[string]uint32{"": 0},
	}
}

// reset returns the builder to the state newIntervalBuilder gives, keeping
// the capacity of its state table, vector and edge tables and interval
// slice.
func (b *intervalBuilder) reset() {
	clear(b.states)
	b.cur = 0
	clear(b.vecs[1:])
	b.vecs = b.vecs[:1]
	b.edges = b.edges.reset()
	clear(b.byKey)
	b.byKey[""] = 0
	b.out = b.out[:0]
	b.carry = 0
	b.prev, b.prevAt, b.started = core.Entry{}, 0, false
}

// setState records a resource's power state and moves to the resulting
// vector.
func (b *intervalBuilder) setState(res core.ResourceID, st core.PowerState) {
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
func (b *intervalBuilder) intern() uint32 {
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
	b.edges = b.edges.push()
	b.byKey[key] = v
	return v
}

// add consumes the next entry, stamped with its unwrapped time. The interval
// between the previous entry and this one is closed and recorded.
func (b *intervalBuilder) add(e core.Entry, at int64) {
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

// push adds an empty edge list for a newly interned item. A list a reset
// left beyond the length is emptied and reused, keeping its capacity.
func (es edges) push() edges {
	if len(es) < cap(es) {
		es = es[:len(es)+1]
		es[len(es)-1] = es[len(es)-1][:0]
		return es
	}
	return append(es, nil)
}

// reset keeps only item 0's list, emptied; push reuses the others.
func (es edges) reset() edges {
	es[0] = es[0][:0]
	return es[:1]
}

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

// reserveSegs extends a per-resource table to span the counted resources
// and gives each counted resource's timeline, the slice segs points into,
// room for one segment per entry plus the one Finish closes. A later batch
// grows what an earlier one reserved; slices.Grow keeps append's geometric
// growth, so a log fed in many batches still costs amortized linear time.
func reserveSegs[T, S any](table []T, c *resCounts, segs func(*T) *[]S) []T {
	if c.span == 0 {
		return table
	}
	table = grow(table, c.span-1)
	for r, n := range c.n[:c.span] {
		if n > 0 {
			p := segs(&table[r])
			*p = slices.Grow(*p, int(n)+1)
		}
	}
	return table
}

// reserve makes room for a batch of n entries whose power-state entries
// c counts: at most one interval per entry, and a state table spanning
// every resource the batch names.
func (b *intervalBuilder) reserve(n int, c *resCounts) {
	b.out = slices.Grow(b.out, n)
	if c.span > 0 {
		b.states = grow(b.states, c.span-1)
	}
}
