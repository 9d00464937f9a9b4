package core

import "slices"

// BatchSink is the batched extension of Sink: RecordBatch consumes a whole
// slice of entries in one call and returns how many were kept. It is the
// streaming pipeline's fast path — the per-entry interface dispatch and
// bounds checks of Record are paid once per batch instead of once per entry.
// Implementations must not retain the batch slice after returning.
type BatchSink interface {
	Sink
	RecordBatch(entries []Entry) int
}

// RecordAll feeds a batch to any sink, using the batched path when the sink
// implements BatchSink and falling back to entry-at-a-time Record otherwise.
// It is the compatibility adapter between the streaming pipeline and
// pre-existing single-entry sinks. Returns the number of entries kept.
func RecordAll(s Sink, entries []Entry) int {
	if bs, ok := s.(BatchSink); ok {
		return bs.RecordBatch(entries)
	}
	kept := 0
	for _, e := range entries {
		if s.Record(e) {
			kept++
		}
	}
	return kept
}

// RAMBuffer is the fixed-size log store used on the mote: "a fixed buffer in
// RAM that holds 800 log entries" (Section 4.4). When full, Record reports
// false and the entry is dropped; the host-side harness either stops the run
// there or drains the buffer through a back channel.
type RAMBuffer struct {
	entries []Entry
	cap     int
}

// DefaultRAMBufferEntries is the paper's buffer size (Table 4).
const DefaultRAMBufferEntries = 800

// NewRAMBuffer returns a buffer holding at most capEntries entries;
// capEntries <= 0 selects the paper's default of 800.
func NewRAMBuffer(capEntries int) *RAMBuffer {
	if capEntries <= 0 {
		capEntries = DefaultRAMBufferEntries
	}
	return &RAMBuffer{entries: make([]Entry, 0, capEntries), cap: capEntries}
}

// Record stores e unless the buffer is full.
func (b *RAMBuffer) Record(e Entry) bool {
	if len(b.entries) >= b.cap {
		return false
	}
	b.entries = append(b.entries, e)
	return true
}

// RecordBatch implements BatchSink: it stores as many entries as fit and
// drops the rest, returning the number kept.
func (b *RAMBuffer) RecordBatch(entries []Entry) int {
	room := b.cap - len(b.entries)
	if room <= 0 {
		return 0
	}
	if room > len(entries) {
		room = len(entries)
	}
	b.entries = append(b.entries, entries[:room]...)
	return room
}

// Len returns the number of stored entries.
func (b *RAMBuffer) Len() int { return len(b.entries) }

// Full reports whether the buffer has no room left.
func (b *RAMBuffer) Full() bool { return len(b.entries) >= b.cap }

// Bytes returns the RAM the stored entries occupy (12 bytes each).
func (b *RAMBuffer) Bytes() int { return len(b.entries) * EntrySize }

// Drain returns the buffered entries and resets the buffer, modeling the
// periodic dump to the serial port or radio.
func (b *RAMBuffer) Drain() []Entry {
	out := b.entries
	b.entries = make([]Entry, 0, b.cap)
	return out
}

// DrainN removes and returns the oldest n buffered entries (everything, if
// fewer are buffered), modeling a bounded dump whose cost was budgeted
// before later entries arrived.
func (b *RAMBuffer) DrainN(n int) []Entry {
	if n >= len(b.entries) {
		return b.Drain()
	}
	out := make([]Entry, n)
	copy(out, b.entries[:n])
	b.entries = append(b.entries[:0], b.entries[n:]...)
	return out
}

// Snapshot returns a copy of the buffered entries without draining.
func (b *RAMBuffer) Snapshot() []Entry {
	out := make([]Entry, len(b.entries))
	copy(out, b.entries)
	return out
}

// Collector is an unbounded sink used by the experiment harnesses: it stands
// in for the continuous-logging back channel (the external synchronous
// serial interface of Section 4.4) that streams entries off the node.
//
// The log grows by doubling. append grows a large slice by only 1.25x, so
// a long log would be copied about four times over and allocate about five
// times its final size; doubling copies it about once and allocates about
// twice its size.
type Collector struct {
	Entries []Entry
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record appends e. It never rejects an entry.
func (c *Collector) Record(e Entry) bool {
	c.reserve(1)
	c.Entries = append(c.Entries, e)
	return true
}

// RecordBatch implements BatchSink with a single append.
func (c *Collector) RecordBatch(entries []Entry) int {
	c.reserve(len(entries))
	c.Entries = append(c.Entries, entries...)
	return len(entries)
}

// reserve makes room for n more entries, growing a full log to at least
// twice its length (16 entries at first).
func (c *Collector) reserve(n int) {
	if len(c.Entries)+n > cap(c.Entries) {
		c.Entries = slices.Grow(c.Entries, max(n, len(c.Entries), 16))
	}
}

// Len returns the number of collected entries.
func (c *Collector) Len() int { return len(c.Entries) }

// Tee duplicates entries to several sinks; Record reports whether all sinks
// kept the entry. It lets a run keep the realistic 800-entry RAM buffer
// while the harness still sees the complete stream, without copying the
// batch.
type Tee struct {
	Sinks []Sink
}

// NewTee fans one stream out to several sinks.
func NewTee(sinks ...Sink) *Tee { return &Tee{Sinks: sinks} }

// Record forwards e to every sink.
func (t *Tee) Record(e Entry) bool {
	ok := true
	for _, s := range t.Sinks {
		if !s.Record(e) {
			ok = false
		}
	}
	return ok
}

// RecordBatch hands the same batch slice to every sink (sinks must not
// retain it), so fan-out costs no extra copies. It returns the minimum kept
// across sinks: the batch is only fully kept if every sink kept all of it.
func (t *Tee) RecordBatch(entries []Entry) int {
	kept := len(entries)
	for _, s := range t.Sinks {
		if n := RecordAll(s, entries); n < kept {
			kept = n
		}
	}
	return kept
}

// CounterSink is the "counting instead of logging" alternative discussed in
// Section 5.1: rather than storing every event it folds the stream into
// fixed per-key counters, making memory overhead constant. It keeps no
// times, so no regression or attribution can run on it; the
// ablation-counters exhibit shows the RAM trade-off, and quanto-trace
// summary prints the counts of a recorded log.
type CounterSink struct {
	PerType map[EntryType]uint64
	PerRes  map[ResourceID]uint64
}

// NewCounterSink returns an empty counter set.
func NewCounterSink() *CounterSink {
	return &CounterSink{
		PerType: make(map[EntryType]uint64),
		PerRes:  make(map[ResourceID]uint64),
	}
}

// Record tallies e without storing it.
func (c *CounterSink) Record(e Entry) bool {
	c.PerType[e.Type]++
	c.PerRes[e.Res]++
	return true
}

// RecordBatch tallies a whole batch.
func (c *CounterSink) RecordBatch(entries []Entry) int {
	for _, e := range entries {
		c.PerType[e.Type]++
		c.PerRes[e.Res]++
	}
	return len(entries)
}
