package trace

import (
	"fmt"
	"io"

	"repro/internal/core"
)

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
// entry. MergeReaders wraps each encoded stream in one, so a Merger pulls
// straight from decoded byte streams without materializing them.
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
// 64-bit microseconds, one stamp at a time, in log order. The clock field
// wraps every 2^32 µs (~71.6 min). A stamp below the one before it is a
// wrap only when the clock's forward distance to it, t + 2^32 - prev, is
// under half that period; otherwise the clock stepped back, which no wrap
// explains, and At returns an error rather than move the rest of the log
// 71.6 minutes ahead.
type Unwrapper struct {
	base int64
	prev uint32
	n    int // stamps read
}

// At returns the unwrapped time of the next stamp, or an error naming the
// entry and both stamps if the clock stepped back. After an error the
// unwrapper still holds the stamp before it.
func (u *Unwrapper) At(t uint32) (int64, error) {
	if u.n > 0 && t < u.prev {
		if t-u.prev >= 1<<31 { // uint32 arithmetic: the forward distance
			return 0, fmt.Errorf("trace: entry %d: clock steps back from %d to %d us", u.n, u.prev, t)
		}
		u.base += 1 << 32
	}
	u.n++
	u.prev = t
	return u.base + int64(t), nil
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
			return nil, err
		}
	}
	return m, nil
}

// advance pulls stream i's next entry into the heap. An entry whose clock
// stepped back ends the stream like a decode error.
func (m *Merger) advance(i int) error {
	st := &m.streams[i]
	e, err := st.src.Next()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	at, err := st.uw.At(e.Time)
	if err != nil {
		return fmt.Errorf("node %d: %w", st.node, err)
	}
	m.push(mergeHead{
		stamped: Stamped{Node: st.node, Entry: e, TimeUS: at},
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
// stream is exhausted. When a stream fails mid-merge, by a decode error or
// by a clock that steps back (see Unwrapper), no entry that sorts ahead of
// the failure is lost: the failing stream's complete entries, and every
// other stream's entries that sort before the last of them, are delivered
// in order before the error surfaces — the same no-silent-loss contract as
// Reader.ReadBatch. The merge then stops pulling: each other stream's entry
// already pulled is delivered too, and the rest are not.
func (m *Merger) Next() (Stamped, error) {
	if len(m.heap) == 0 {
		if m.err != nil {
			return Stamped{}, m.err
		}
		return Stamped{}, io.EOF
	}
	head := m.pop()
	if m.err == nil {
		if err := m.advance(head.stream); err != nil {
			// Deliver the heads already pulled, then report the error.
			// Healthy streams are no longer advanced.
			m.err = err
		}
	}
	return head.stamped, nil
}
