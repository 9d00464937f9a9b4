package core

import "testing"

func batchOf(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Type: EntryMarker, Time: uint32(i), IC: uint32(i), Val: uint16(i)}
	}
	return out
}

// plainSink implements only the single-entry interface, to exercise the
// RecordAll fallback.
type plainSink struct {
	got  []Entry
	keep int // entries accepted before rejecting
}

func (p *plainSink) Record(e Entry) bool {
	if len(p.got) >= p.keep {
		return false
	}
	p.got = append(p.got, e)
	return true
}

func TestRecordAllFallsBackToSingleRecord(t *testing.T) {
	p := &plainSink{keep: 3}
	if kept := RecordAll(p, batchOf(5)); kept != 3 {
		t.Errorf("kept = %d, want 3", kept)
	}
	if len(p.got) != 3 {
		t.Errorf("sink holds %d entries", len(p.got))
	}
}

func TestRecordAllUsesBatchPath(t *testing.T) {
	c := NewCollector()
	if kept := RecordAll(c, batchOf(4)); kept != 4 {
		t.Errorf("kept = %d", kept)
	}
	if c.Len() != 4 {
		t.Errorf("collector holds %d", c.Len())
	}
}

// TestCollectorGrowsByDoubling pins the log's growth: each time it fills,
// its capacity at least doubles, starting from 16 entries. 100 000 entries
// then take at most 1 + ceil(log2(100000/16)) = 14 growths, one allocation
// each; append's 1.25x growth for large slices takes 29. The test counts
// capacity changes rather than allocations: under the race detector
// slices.Grow also allocates a temporary per growth.
func TestCollectorGrowsByDoubling(t *testing.T) {
	const n, maxGrowths = 100_000, 14
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

func TestRAMBufferRecordBatchPartialKeep(t *testing.T) {
	b := NewRAMBuffer(4)
	if kept := b.RecordBatch(batchOf(3)); kept != 3 {
		t.Errorf("first batch kept %d", kept)
	}
	if kept := b.RecordBatch(batchOf(3)); kept != 1 {
		t.Errorf("overflow batch kept %d, want 1", kept)
	}
	if !b.Full() || b.Len() != 4 {
		t.Errorf("buffer len %d full=%v", b.Len(), b.Full())
	}
	if kept := b.RecordBatch(batchOf(2)); kept != 0 {
		t.Errorf("full buffer kept %d", kept)
	}
}

func TestTeeRecordBatchReportsMinKept(t *testing.T) {
	a, b := NewCollector(), NewRAMBuffer(2)
	tee := NewTee(a, b)
	if kept := tee.RecordBatch(batchOf(5)); kept != 2 {
		t.Errorf("kept = %d, want the RAM buffer's 2", kept)
	}
	if a.Len() != 5 {
		t.Errorf("collector got %d entries, want all 5", a.Len())
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

func TestRingBufferKeepsMostRecent(t *testing.T) {
	r := NewRingBuffer(3)
	for i, e := range batchOf(5) {
		if !r.Record(e) {
			t.Fatalf("record %d rejected", i)
		}
	}
	if r.Len() != 3 || r.Evicted() != 2 {
		t.Fatalf("len=%d evicted=%d, want 3/2", r.Len(), r.Evicted())
	}
	snap := r.Snapshot()
	for i, want := range []uint32{2, 3, 4} {
		if snap[i].Time != want {
			t.Errorf("snap[%d].Time = %d, want %d", i, snap[i].Time, want)
		}
	}
}

func TestRingBufferLargeBatchReplacesContents(t *testing.T) {
	r := NewRingBuffer(3)
	r.Record(Entry{Type: EntryMarker, Time: 99})
	if kept := r.RecordBatch(batchOf(5)); kept != 5 {
		t.Errorf("kept = %d", kept)
	}
	// One old entry overwritten plus two batch entries that never landed.
	if r.Evicted() != 3 {
		t.Errorf("evicted = %d, want 3", r.Evicted())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	for i, want := range []uint32{2, 3, 4} {
		if snap[i].Time != want {
			t.Errorf("snap[%d].Time = %d, want %d", i, snap[i].Time, want)
		}
	}
}

func TestRingBufferSmallBatchWraps(t *testing.T) {
	r := NewRingBuffer(4)
	r.RecordBatch(batchOf(3))
	if kept := r.RecordBatch(batchOf(3)); kept != 3 {
		t.Errorf("kept = %d", kept)
	}
	snap := r.Snapshot()
	want := []uint32{2, 0, 1, 2}
	for i := range want {
		if snap[i].Time != want[i] {
			t.Errorf("snap[%d].Time = %d, want %d", i, snap[i].Time, want[i])
		}
	}
	if r.Evicted() != 2 {
		t.Errorf("evicted = %d, want 2", r.Evicted())
	}
}

func TestRingBufferAsTrackerSinkNeverDrops(t *testing.T) {
	clock := &testClock{}
	meter := &testMeter{}
	ring := NewRingBuffer(2)
	trk := NewTracker(Config{Node: 1, Clock: clock, Meter: meter, Sink: ring})
	for i := 0; i < 5; i++ {
		trk.Log(EntryMarker, 0, uint16(i))
	}
	if trk.Dropped() != 0 {
		t.Errorf("ring sink should never drop; dropped = %d", trk.Dropped())
	}
	if trk.Entries() != 5 {
		t.Errorf("entries = %d", trk.Entries())
	}
}
