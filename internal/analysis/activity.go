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

	// The builder's state: the open segment's start and label, and the
	// segments of the unresolved proxy episode. seen is set once the
	// resource logs an activity entry, so a resource that never did stays
	// distinguishable from one whose timeline is empty.
	pending []int
	start   int64
	label   core.Label
	seen    bool
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

	// The builder's state: the open segment's start and labels (an index
	// into labelSets), and whether the resource logged an activity entry.
	start int64
	set   uint32
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
// The timelines live in tables indexed by resource id, which a finished
// stream's Analysis shares, each holding its resource's open segment by
// value: an activity change closes it and opens the next in place. Label
// sets are interned, so an activity change neither hashes nor allocates
// beyond growing a timeline.
type timelineBuilder struct {
	isProxy func(core.Label) bool
	single  []ActTimeline   // by resource id
	multi   []MultiTimeline // by resource id
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
		*r = ActTimeline{Segs: r.Segs[:0], pending: r.pending[:0]}
	}
	for i := range b.multi {
		r := &b.multi[i]
		*r = MultiTimeline{Segs: r.Segs[:0]}
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
				r.Segs = append(r.Segs, Segment{Start: r.start, End: at, Label: r.label, Owner: r.label})
			}
			// The segment ending now may be part of a proxy episode.
			if n := len(r.Segs); n > 0 && r.Segs[n-1].End == at && b.isProxy(r.Segs[n-1].Label) {
				pending = append(pending, n-1)
			}
		}
		switch {
		case e.Type == core.EntryActivityBind:
			// Reassign the pending episode to the bound activity.
			for _, idx := range pending {
				r.Segs[idx].Owner = label
			}
			pending = pending[:0]
		case !b.isProxy(label) && !label.IsIdle():
			// A real activity closes the episode: pending proxy
			// segments keep their own labels.
			pending = pending[:0]
		}
		r.Res, r.pending, r.start, r.label, r.seen = e.Res, pending, at, label, true

	case core.EntryActivityAdd, core.EntryActivityRemove:
		b.multi = grow(b.multi, int(e.Res))
		r := &b.multi[e.Res]
		if !r.seen {
			r.Res, r.start, r.seen = e.Res, at, true
		}
		if at > r.start {
			r.Segs = append(r.Segs, MultiSegment{Start: r.start, End: at, Labels: b.sets.sets[r.set]})
		}
		r.set = b.sets.step(r.set, e.Type == core.EntryActivityAdd, e.Label())
		r.start = at
	}
}

// reserve makes room for a batch whose single- and multi-activity entries
// the counts describe.
func (b *timelineBuilder) reserve(single, multi *resCounts) {
	b.single = reserveSegs(b.single, single, func(r *ActTimeline) *[]Segment { return &r.Segs })
	b.multi = reserveSegs(b.multi, multi, func(r *MultiTimeline) *[]MultiSegment { return &r.Segs })
}

// close closes every open segment at the given end time. Call it once.
func (b *timelineBuilder) close(end int64) {
	for i := range b.single {
		if r := &b.single[i]; r.seen && end > r.start {
			r.Segs = append(r.Segs, Segment{Start: r.start, End: end, Label: r.label, Owner: r.label})
		}
	}
	for i := range b.multi {
		if r := &b.multi[i]; r.seen && end > r.start {
			r.Segs = append(r.Segs, MultiSegment{Start: r.start, End: end, Labels: b.sets.sets[r.set]})
		}
	}
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

// openState is one resource's open power-state segment.
type openState struct {
	start int64
	state core.PowerState
	open  bool
}

// stateTimelineBuilder reconstructs per-resource power-state histories from
// an event stream incrementally, in tables indexed by resource id: segs,
// which a finished stream's Analysis shares, and the open segments. Its
// zero value is an empty builder.
type stateTimelineBuilder struct {
	segs [][]StateSegment
	open []openState
}

// reset empties every resource's timeline, keeping its capacity.
func (b *stateTimelineBuilder) reset() {
	for i := range b.segs {
		b.segs[i] = b.segs[i][:0]
	}
	clear(b.open)
}

// reserve makes room for a batch whose power-state entries c counts.
func (b *stateTimelineBuilder) reserve(c *resCounts) {
	b.segs = reserveSegs(b.segs, c, func(s *[]StateSegment) *[]StateSegment { return s })
}

// add consumes the next entry; non-power-state entries are ignored.
func (b *stateTimelineBuilder) add(e core.Entry, at int64) {
	if e.Type != core.EntryPowerState {
		return
	}
	b.segs, b.open = grow(b.segs, int(e.Res)), grow(b.open, int(e.Res))
	if r := &b.open[e.Res]; r.open && at > r.start {
		b.segs[e.Res] = append(b.segs[e.Res], StateSegment{Start: r.start, End: at, State: r.state})
	}
	b.open[e.Res] = openState{start: at, state: e.State(), open: true}
}

// close closes every open segment at the given end time. Call it once.
func (b *stateTimelineBuilder) close(end int64) {
	for i, r := range b.open {
		if r.open && end > r.start {
			b.segs[i] = append(b.segs[i], StateSegment{Start: r.start, End: end, State: r.state})
		}
	}
}
