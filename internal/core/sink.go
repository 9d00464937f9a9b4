package core

import "slices"

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

// RecordBatch appends a whole batch with a single append; the drain of
// continuous-logging mode lands here.
func (c *Collector) RecordBatch(entries []Entry) {
	c.reserve(len(entries))
	c.Entries = append(c.Entries, entries...)
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
