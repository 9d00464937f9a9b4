package trace

import (
	"io"
	"sort"

	"repro/internal/core"
)

// NodeLog pairs a node id with its entry stream. Entry timestamps are
// node-local; the experiments here run nodes off a common simulated clock,
// so no time-synchronization pass is needed (the real deployment would
// insert one).
type NodeLog struct {
	Node    core.NodeID
	Entries []core.Entry
}

// Stamped is a log entry annotated with its owning node and the unwrapped
// 64-bit timestamp, used after merging multiple node logs into one
// network-wide stream.
type Stamped struct {
	Node core.NodeID
	core.Entry
	// TimeUS is Entry.Time unwrapped to monotonic 64-bit microseconds
	// (node-local; the 32-bit field wraps every ~71.6 minutes).
	TimeUS int64
}

// EntrySource yields entries one at a time; it returns io.EOF after the last
// entry. *Reader satisfies it directly, so a Merger can pull straight from
// decoded byte streams without materializing them.
type EntrySource interface {
	Next() (core.Entry, error)
}

// SliceSource adapts an in-memory log to EntrySource.
type SliceSource struct {
	entries []core.Entry
	pos     int
}

// NewSliceSource iterates over entries without copying them.
func NewSliceSource(entries []core.Entry) *SliceSource {
	return &SliceSource{entries: entries}
}

// Next implements EntrySource.
func (s *SliceSource) Next() (core.Entry, error) {
	if s.pos >= len(s.entries) {
		return core.Entry{}, io.EOF
	}
	e := s.entries[s.pos]
	s.pos++
	return e, nil
}

// Stream is one node's entry source, input to the k-way merge.
type Stream struct {
	Node   core.NodeID
	Source EntrySource
}

// mergeHead is one stream's frontier entry sitting in the merge heap.
type mergeHead struct {
	stamped Stamped
	stream  int // index into Merger.streams
}

// Unwrapper converts one node's wrapped 32-bit timestamps to monotonic
// 64-bit microseconds, one stamp at a time. Stamps are assumed in
// generation order with gaps shorter than one wrap period (~71.6 min).
type Unwrapper struct {
	base    int64
	prev    uint32
	started bool
}

// At returns the unwrapped time of the next stamp.
func (u *Unwrapper) At(t uint32) int64 {
	if u.started && t < u.prev {
		u.base += int64(1) << 32
	}
	u.started = true
	u.prev = t
	return u.base + int64(t)
}

// streamState tracks one merge input and its timestamp unwrapping.
type streamState struct {
	node core.NodeID
	src  EntrySource
	uw   Unwrapper
}

// Merger performs an O(N log k) k-way merge of per-node entry streams into
// one network-wide stream ordered by unwrapped time (ties broken by node
// id, preserving each node's own order). It holds one entry per stream —
// O(k) memory — so traces of any length merge without materializing.
type Merger struct {
	streams []streamState
	heap    []mergeHead
	err     error
}

// NewMerger starts a merge over the given streams.
func NewMerger(streams []Stream) (*Merger, error) {
	m := &Merger{streams: make([]streamState, len(streams))}
	for i, s := range streams {
		m.streams[i] = streamState{node: s.Node, src: s.Source}
	}
	for i := range m.streams {
		if err := m.advance(i); err != nil {
			m.closeAll()
			return nil, err
		}
	}
	return m, nil
}

// sourceCloser is implemented by sources holding resources (a decode
// goroutine, buffers) that must be released when the merge abandons them.
type sourceCloser interface{ Close() }

// Close releases every source that holds resources (decode goroutines,
// buffers). Next calls it automatically at EOF or on error; a consumer that
// abandons the merge early — stops before draining — must call it itself or
// leak one blocked decode goroutine per concurrent stream.
func (m *Merger) Close() { m.closeAll() }

// closeAll releases every closable source. Called when the merge ends —
// normally or on error — so abandoned concurrent decoders shut down instead
// of blocking forever.
func (m *Merger) closeAll() {
	for i := range m.streams {
		if c, ok := m.streams[i].src.(sourceCloser); ok {
			c.Close()
		}
	}
}

// advance pulls stream i's next entry into the heap.
func (m *Merger) advance(i int) error {
	st := &m.streams[i]
	e, err := st.src.Next()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	m.push(mergeHead{
		stamped: Stamped{Node: st.node, Entry: e, TimeUS: st.uw.At(e.Time)},
		stream:  i,
	})
	return nil
}

// less orders heads by (unwrapped time, node id). One head per stream means
// within-node order needs no further tiebreak.
func (m *Merger) less(a, b mergeHead) bool {
	if a.stamped.TimeUS != b.stamped.TimeUS {
		return a.stamped.TimeUS < b.stamped.TimeUS
	}
	return a.stamped.Node < b.stamped.Node
}

func (m *Merger) push(h mergeHead) {
	m.heap = append(m.heap, h)
	for i := len(m.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !m.less(m.heap[i], m.heap[parent]) {
			break
		}
		m.heap[i], m.heap[parent] = m.heap[parent], m.heap[i]
		i = parent
	}
}

func (m *Merger) pop() mergeHead {
	top := m.heap[0]
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap = m.heap[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(m.heap) && m.less(m.heap[l], m.heap[smallest]) {
			smallest = l
		}
		if r < len(m.heap) && m.less(m.heap[r], m.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		m.heap[i], m.heap[smallest] = m.heap[smallest], m.heap[i]
		i = smallest
	}
	return top
}

// Next returns the next entry of the merged stream, or io.EOF when every
// stream is exhausted. When one stream fails mid-merge, every entry decoded
// before the failure is still delivered (in order) before the error
// surfaces — the same no-silent-loss contract as Reader.ReadBatch.
func (m *Merger) Next() (Stamped, error) {
	if len(m.heap) == 0 {
		m.closeAll()
		if m.err != nil {
			return Stamped{}, m.err
		}
		return Stamped{}, io.EOF
	}
	head := m.pop()
	if m.err == nil {
		if err := m.advance(head.stream); err != nil {
			// Deliver the heads already decoded, then report the error.
			// Healthy streams are no longer advanced; their decoders are
			// released once the buffered heads drain.
			m.err = err
		}
	}
	return head.stamped, nil
}

// Drain consumes the rest of the merged stream into a slice.
func (m *Merger) Drain() ([]Stamped, error) {
	var out []Stamped
	for {
		s, err := m.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}

// SplitByNode partitions a merged stream back into per-node logs, preserving
// order.
func SplitByNode(merged []Stamped) []NodeLog {
	byNode := make(map[core.NodeID][]core.Entry)
	var order []core.NodeID
	for _, s := range merged {
		if _, ok := byNode[s.Node]; !ok {
			order = append(order, s.Node)
		}
		byNode[s.Node] = append(byNode[s.Node], s.Entry)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]NodeLog, 0, len(order))
	for _, n := range order {
		out = append(out, NodeLog{Node: n, Entries: byNode[n]})
	}
	return out
}

// UnwrapTimes converts the 32-bit wrapped microsecond timestamps of a single
// node's log into monotonically non-decreasing 64-bit times. The mote's
// clock field wraps every ~71.6 minutes; entries are assumed to be in
// generation order with gaps shorter than one wrap period.
func UnwrapTimes(entries []core.Entry) []int64 {
	out := make([]int64, len(entries))
	var uw Unwrapper
	for i, e := range entries {
		out[i] = uw.At(e.Time)
	}
	return out
}
