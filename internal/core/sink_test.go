package core

import "testing"

func batchOf(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Type: EntryMarker, Time: uint32(i), IC: uint32(i), Val: uint16(i)}
	}
	return out
}

// TestCollectorGrowsByDoubling pins the log's growth: each time it fills,
// its capacity at least doubles, starting from 32 entries. 100 000 entries
// then take at most 1 + ceil(log2(100000/32)) = 13 growths, one allocation
// each; append's 1.25x growth for large slices takes 29. The test counts
// capacity changes rather than allocations: under the race detector
// slices.Grow also allocates a temporary per growth.
func TestCollectorGrowsByDoubling(t *testing.T) {
	const n, maxGrowths = 100_000, 13
	var c Collector
	growths := 0
	for i := range n {
		had := cap(c.Entries)
		c.Record(Entry{Type: EntryMarker, Time: uint32(i), IC: uint32(i)})
		if cap(c.Entries) != had {
			growths++
		}
	}
	if c.Len() != n {
		t.Fatalf("collector holds %d entries, want %d", c.Len(), n)
	}
	if growths > maxGrowths {
		t.Errorf("%d Record calls grew the log %d times, want at most %d", n, growths, maxGrowths)
	}
	// A batch grows a full log the same way.
	c = Collector{Entries: make([]Entry, 100)}
	c.RecordBatch(batchOf(10))
	if c.Len() != 110 || cap(c.Entries) < 200 {
		t.Errorf("a batch of 10 on a full log of 100: len %d cap %d, want len 110 and cap at least 200", c.Len(), cap(c.Entries))
	}
}

func TestCounterSinkRecordBatch(t *testing.T) {
	c := NewCounterSink()
	batch := []Entry{
		{Type: EntryPowerState, Res: 1},
		{Type: EntryPowerState, Res: 2},
		{Type: EntryActivitySet, Res: 1},
	}
	if kept := c.RecordBatch(batch); kept != 3 {
		t.Errorf("kept = %d", kept)
	}
	if c.PerType[EntryPowerState] != 2 || c.PerRes[1] != 2 {
		t.Errorf("counters = %v / %v", c.PerType, c.PerRes)
	}
}
