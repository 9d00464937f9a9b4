package analysis

import (
	"slices"

	"repro/internal/core"
)

// Segment is one stretch of a single-activity resource's timeline. Label is
// the raw label the device carried (what the figures show); Owner is the
// label after proxy resolution (what accounting charges), which differs only
// when a later bind entry reassigned a proxy episode.
type Segment struct {
	Start, End int64
	Label      core.Label
	Owner      core.Label
}

// ActTimeline is a single-activity resource's activity history.
type ActTimeline struct {
	Res  core.ResourceID
	Segs []Segment
}

// MultiSegment is one stretch of a multi-activity resource's timeline with
// its concurrent label set.
type MultiSegment struct {
	Start, End int64
	// Labels is sorted, nil for an idle device, and shared between segments
	// with the same set; do not mutate.
	Labels []core.Label
}

// MultiTimeline is a multi-activity resource's history.
type MultiTimeline struct {
	Res  core.ResourceID
	Segs []MultiSegment
}

// singleRes is a single-activity resource's builder state. The open
// segment is held by value: an activity change closes it and opens the
// next in place.
type singleRes struct {
	segs    []Segment
	pending []int // indices of segments in the unresolved proxy episode
	start   int64 // the open segment's start
	label   core.Label
	seen    bool
}

// multiRes is a multi-activity resource's builder state.
type multiRes struct {
	segs  []MultiSegment
	start int64  // the open segment's start
	set   uint32 // the open segment's labels, an index into labelSets
	seen  bool
}

// timelineBuilder reconstructs per-resource activity histories from an event
// stream incrementally, one entry at a time. isProxy identifies proxy labels
// (from the dictionary); bind entries reassign the owner of the pending
// proxy episode on that resource, implementing the paper's "the resources
// used by a proxy activity are accounted for separately, and then assigned
// to the real activity as soon as the system can determine what this
// activity is".
//
// Per-resource state lives in tables indexed by resource id and label sets
// are interned, so an activity change neither hashes nor allocates beyond
// growing a timeline.
type timelineBuilder struct {
	isProxy func(core.Label) bool
	single  []singleRes // by resource id
	multi   []multiRes  // by resource id
	sets    labelSets
}

// newTimelineBuilder returns an empty builder.
func newTimelineBuilder(isProxy func(core.Label) bool) *timelineBuilder {
	return &timelineBuilder{isProxy: isProxy}
}

// reset returns the builder to the state newTimelineBuilder gives, keeping
// the per-resource tables, every timeline's capacity and the label sets'.
func (b *timelineBuilder) reset() {
	for i := range b.single {
		r := &b.single[i]
		*r = singleRes{segs: r.segs[:0], pending: r.pending[:0]}
	}
	for i := range b.multi {
		r := &b.multi[i]
		*r = multiRes{segs: r.segs[:0]}
	}
	b.sets.reset()
}

// add consumes the next entry, stamped with its unwrapped time. Entries that
// are not activity events are ignored.
func (b *timelineBuilder) add(e core.Entry, at int64) {
	switch e.Type {
	case core.EntryActivitySet, core.EntryActivityBind:
		b.single = grow(b.single, int(e.Res))
		r := &b.single[e.Res]
		label := e.Label()
		pending := r.pending
		if r.seen {
			if at > r.start {
				r.segs = append(r.segs, Segment{Start: r.start, End: at, Label: r.label, Owner: r.label})
			}
			// The segment ending now may be part of a proxy episode.
			if n := len(r.segs); n > 0 && r.segs[n-1].End == at && b.isProxy(r.segs[n-1].Label) {
				pending = append(pending, n-1)
			}
		}
		switch {
		case e.Type == core.EntryActivityBind:
			// Reassign the pending episode to the bound activity.
			for _, idx := range pending {
				r.segs[idx].Owner = label
			}
			pending = pending[:0]
		case !b.isProxy(label) && !label.IsIdle():
			// A real activity closes the episode: pending proxy
			// segments keep their own labels.
			pending = pending[:0]
		}
		r.pending, r.start, r.label, r.seen = pending, at, label, true

	case core.EntryActivityAdd, core.EntryActivityRemove:
		b.multi = grow(b.multi, int(e.Res))
		r := &b.multi[e.Res]
		if !r.seen {
			r.start, r.seen = at, true
		}
		if at > r.start {
			r.segs = append(r.segs, MultiSegment{Start: r.start, End: at, Labels: b.sets.sets[r.set]})
		}
		r.set = b.sets.step(r.set, e.Type == core.EntryActivityAdd, e.Label())
		r.start = at
	}
}

// reserve makes room for a batch whose single- and multi-activity entries
// the counts describe.
func (b *timelineBuilder) reserve(single, multi *resCounts) {
	b.single = reserveSegs(b.single, single, func(r *singleRes) *[]Segment { return &r.segs })
	b.multi = reserveSegs(b.multi, multi, func(r *multiRes) *[]MultiSegment { return &r.segs })
}

// close closes every open segment at the given end time. Call it once.
func (b *timelineBuilder) close(end int64) {
	for i := range b.single {
		if r := &b.single[i]; r.seen && end > r.start {
			r.segs = append(r.segs, Segment{Start: r.start, End: end, Label: r.label, Owner: r.label})
		}
	}
	for i := range b.multi {
		if r := &b.multi[i]; r.seen && end > r.start {
			r.segs = append(r.segs, MultiSegment{Start: r.start, End: end, Labels: b.sets.sets[r.set]})
		}
	}
}

// views returns the closed timelines as maps keyed by every resource that
// logged an activity entry.
func (b *timelineBuilder) views() (map[core.ResourceID]*ActTimeline, map[core.ResourceID]*MultiTimeline) {
	single := make(map[core.ResourceID]*ActTimeline, countIf(b.single, func(r *singleRes) bool { return r.seen }))
	for i := range b.single {
		if r := &b.single[i]; r.seen {
			res := core.ResourceID(i)
			single[res] = &ActTimeline{Res: res, Segs: r.segs}
		}
	}
	multi := make(map[core.ResourceID]*MultiTimeline, countIf(b.multi, func(r *multiRes) bool { return r.seen }))
	for i := range b.multi {
		if r := &b.multi[i]; r.seen {
			res := core.ResourceID(i)
			multi[res] = &MultiTimeline{Res: res, Segs: r.segs}
		}
	}
	return single, multi
}

// countIf counts the entries of a per-resource table that keep, so a view
// sizes its result map once.
func countIf[T any](table []T, keep func(*T) bool) int {
	n := 0
	for i := range table {
		if keep(&table[i]) {
			n++
		}
	}
	return n
}

// labelSets interns the label sets of multi-activity resources. Set 0 is
// the empty set (nil); every other set is a sorted slice stored once and
// shared by the segments that carry it. The table is created by the first
// step, which precedes any segment.
type labelSets struct {
	sets   [][]core.Label
	edges  edges             // per set; key packs (add, label)
	byKey  map[string]uint32 // consulted only when an edge is learned
	keyBuf []byte
}

// reset drops every set but the empty one, keeping the tables' capacity.
func (ls *labelSets) reset() {
	if ls.sets == nil {
		return // no step yet: the table does not exist
	}
	clear(ls.sets[1:])
	ls.sets = ls.sets[:1]
	ls.edges = ls.edges.reset()
	clear(ls.byKey)
	ls.byKey[""] = 0
}

// step returns the set that adding (or removing) l turns set i into.
// Adding a member or removing a non-member leaves the set as it is.
func (ls *labelSets) step(i uint32, add bool, l core.Label) uint32 {
	if ls.sets == nil {
		ls.sets, ls.edges, ls.byKey = [][]core.Label{nil}, edges{nil}, map[string]uint32{"": 0}
	}
	key := uint32(l)
	if add {
		key |= 1 << 16
	}
	if to, ok := ls.edges.find(i, key); ok {
		return to
	}
	cur := ls.sets[i]
	at, member := slices.BinarySearch(cur, l)
	next := cur
	switch {
	case add && !member:
		next = slices.Insert(slices.Clone(cur), at, l)
	case !add && member:
		next = slices.Delete(slices.Clone(cur), at, at+1)
	}
	buf := ls.keyBuf[:0]
	for _, m := range next {
		buf = append(buf, byte(m>>8), byte(m))
	}
	ls.keyBuf = buf
	to, ok := ls.byKey[string(buf)]
	if !ok {
		to = uint32(len(ls.sets))
		ls.sets = append(ls.sets, next)
		ls.edges = ls.edges.push()
		ls.byKey[string(buf)] = to
	}
	ls.edges.learn(i, key, to)
	return to
}

// StateSegment is one stretch of a resource's power-state history.
type StateSegment struct {
	Start, End int64
	State      core.PowerState
}

// stateRes is one resource's power-state builder state.
type stateRes struct {
	segs  []StateSegment
	start int64 // the open segment's start
	state core.PowerState
	open  bool
}

// stateTimelineBuilder reconstructs per-resource power-state histories from
// an event stream incrementally, in a table indexed by resource id. Its
// zero value is an empty builder.
type stateTimelineBuilder struct {
	res []stateRes
}

// reset empties every resource's timeline, keeping its capacity.
func (b *stateTimelineBuilder) reset() {
	for i := range b.res {
		r := &b.res[i]
		*r = stateRes{segs: r.segs[:0]}
	}
}

// reserve makes room for a batch whose power-state entries c counts.
func (b *stateTimelineBuilder) reserve(c *resCounts) {
	b.res = reserveSegs(b.res, c, func(r *stateRes) *[]StateSegment { return &r.segs })
}

// add consumes the next entry; non-power-state entries are ignored.
func (b *stateTimelineBuilder) add(e core.Entry, at int64) {
	if e.Type != core.EntryPowerState {
		return
	}
	b.res = grow(b.res, int(e.Res))
	r := &b.res[e.Res]
	if r.open && at > r.start {
		r.segs = append(r.segs, StateSegment{Start: r.start, End: at, State: r.state})
	}
	r.start, r.state, r.open = at, e.State(), true
}

// close closes every open segment at the given end time. Call it once.
func (b *stateTimelineBuilder) close(end int64) {
	for i := range b.res {
		if r := &b.res[i]; r.open && end > r.start {
			r.segs = append(r.segs, StateSegment{Start: r.start, End: end, State: r.state})
		}
	}
}

// views returns the closed timelines as a map keyed by every resource with
// at least one segment.
func (b *stateTimelineBuilder) views() map[core.ResourceID][]StateSegment {
	out := make(map[core.ResourceID][]StateSegment, countIf(b.res, func(r *stateRes) bool { return len(r.segs) > 0 }))
	for i := range b.res {
		if r := &b.res[i]; len(r.segs) > 0 {
			out[core.ResourceID(i)] = r.segs
		}
	}
	return out
}
