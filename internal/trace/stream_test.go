package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

func mkEntries(times ...uint32) []core.Entry {
	out := make([]core.Entry, len(times))
	for i, t := range times {
		out[i] = core.Entry{Type: core.EntryMarker, Time: t, IC: uint32(i), Val: uint16(i)}
	}
	return out
}

// mergeLogs interleaves in-memory logs through a Merger over slice sources.
func mergeLogs(t *testing.T, logs []NodeLog) []Stamped {
	t.Helper()
	streams := make([]Stream, len(logs))
	for i, l := range logs {
		streams[i] = Stream{Node: l.Node, Source: NewSliceSource(l.Entries)}
	}
	m, err := NewMerger(streams)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSliceSourceIterates(t *testing.T) {
	src := NewSliceSource(mkEntries(1, 2, 3))
	for want := uint32(1); want <= 3; want++ {
		e, err := src.Next()
		if err != nil || e.Time != want {
			t.Fatalf("Next = %v, %v; want t=%d", e, err, want)
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestMergeOrdersAcrossTimestampWrap(t *testing.T) {
	// Node 1's clock wraps: the post-wrap entry (raw time 5) happened AFTER
	// raw time 0xFFFF_FFF0 and must sort after it — and after node 2's
	// entries, which all predate the wrap. The seed's concat+sort merge
	// ordered by raw uint32 time and got this wrong.
	logs := []NodeLog{
		{Node: 1, Entries: mkEntries(0xFFFF_FFF0, 5)},
		{Node: 2, Entries: mkEntries(100, 0xFFFF_FFF5)},
	}
	merged := mergeLogs(t, logs)
	if len(merged) != 4 {
		t.Fatalf("merged %d entries", len(merged))
	}
	wantOrder := []struct {
		node   core.NodeID
		time   uint32
		timeUS int64
	}{
		{2, 100, 100},
		{1, 0xFFFF_FFF0, 0xFFFF_FFF0},
		{2, 0xFFFF_FFF5, 0xFFFF_FFF5},
		{1, 5, 1<<32 + 5},
	}
	for i, w := range wantOrder {
		got := merged[i]
		if got.Node != w.node || got.Time != w.time || got.TimeUS != w.timeUS {
			t.Errorf("merged[%d] = node %d t=%d us=%d, want node %d t=%d us=%d",
				i, got.Node, got.Time, got.TimeUS, w.node, w.time, w.timeUS)
		}
	}
}

// TestMergeMatchesSortBaseline cross-checks the k-way heap merge against the
// seed's concat+stable-sort reference on non-wrapping inputs, where both
// definitions agree.
func TestMergeMatchesSortBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var logs []NodeLog
		for n := 1; n <= 1+rng.Intn(5); n++ {
			var times []uint32
			cur := uint32(rng.Intn(100))
			for i := 0; i < rng.Intn(40); i++ {
				cur += uint32(rng.Intn(3)) // duplicates are common
				times = append(times, cur)
			}
			logs = append(logs, NodeLog{Node: core.NodeID(n), Entries: mkEntries(times...)})
		}
		got := mergeLogs(t, logs)
		want := mergeSortBaseline(logs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d != %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Node != want[i].Node || got[i].Entry != want[i].Entry {
				t.Fatalf("trial %d: merged[%d] = %v/%v, want %v/%v",
					trial, i, got[i].Node, got[i].Entry, want[i].Node, want[i].Entry)
			}
		}
	}
}

// mergeSortBaseline is the seed repo's concat+sort merge, kept as a test
// oracle and benchmark baseline.
func mergeSortBaseline(logs []NodeLog) []Stamped {
	total := 0
	for _, l := range logs {
		total += len(l.Entries)
	}
	out := make([]Stamped, 0, total)
	for _, l := range logs {
		for _, e := range l.Entries {
			out = append(out, Stamped{Node: l.Node, Entry: e})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// TestMergeSplitRoundTripProperty checks merge → SplitByNode returns every
// node's entries in their original order, for arbitrary (even wrapping)
// timestamp sequences.
func TestMergeSplitRoundTripProperty(t *testing.T) {
	f := func(a, b, c []uint32) bool {
		logs := []NodeLog{
			{Node: 1, Entries: mkEntries(a...)},
			{Node: 2, Entries: mkEntries(b...)},
			{Node: 3, Entries: mkEntries(c...)},
		}
		back := SplitByNode(mergeLogs(t, logs))
		byNode := make(map[core.NodeID][]core.Entry)
		for _, l := range back {
			byNode[l.Node] = l.Entries
		}
		for _, l := range logs {
			got := byNode[l.Node]
			if len(l.Entries) == 0 {
				if len(got) != 0 {
					return false
				}
				continue
			}
			if len(got) != len(l.Entries) {
				return false
			}
			for i := range got {
				if got[i] != l.Entries[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadBatchRoundTrip(t *testing.T) {
	want := mkEntries(1, 2, 3, 4, 5, 6, 7)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBatch(want); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(want) {
		t.Errorf("Count = %d", w.Count())
	}
	r := NewReader(&buf)
	var got []core.Entry
	chunk := make([]core.Entry, 3) // smaller than the stream on purpose
	for {
		n, err := r.ReadBatch(chunk)
		got = append(got, chunk[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("read %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReadBatchTruncatedFrame(t *testing.T) {
	// Two whole entries plus 5 trailing bytes: the whole entries decode,
	// the partial frame is an error, not silent truncation.
	data := Marshal(mkEntries(1, 2))
	data = append(data, 0xDE, 0xAD, 0xBE, 0xEF, 0x01)
	r := NewReader(bytes.NewReader(data))
	buf := make([]core.Entry, 8)
	n, err := r.ReadBatch(buf)
	if n != 2 {
		t.Errorf("ReadBatch delivered %d complete frames, want 2", n)
	}
	if err == nil || err == io.EOF {
		t.Errorf("truncated frame should be an error, got %v", err)
	}
}

func TestReadTruncatedFrame(t *testing.T) {
	data := Marshal(mkEntries(1))
	data = append(data, 0x06, 0x00, 0x07) // 3-byte partial frame
	r := NewReader(bytes.NewReader(data))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first full frame: %v", err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Errorf("partial trailing frame should be an error, got %v", err)
	}
}

// failWriter errors after accepting limit bytes.
type failWriter struct {
	limit int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) <= w.limit {
		w.limit -= len(p)
		return len(p), nil
	}
	n := w.limit
	w.limit = 0
	return n, errors.New("disk full")
}

func TestWriteShortWrite(t *testing.T) {
	w := NewWriter(&failWriter{limit: EntrySize})
	if err := w.Write(core.Entry{Type: core.EntryMarker}); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := w.Write(core.Entry{Type: core.EntryMarker}); err == nil {
		t.Error("write past the failure point should error")
	}
	if err := NewWriter(&failWriter{limit: 17}).WriteBatch(mkEntries(1, 2, 3)); err == nil {
		t.Error("batch write past the failure point should error")
	}
}

func TestMergeReadersMatchesInMemoryMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var logs []NodeLog
	var streams []ReaderStream
	for n := 1; n <= 4; n++ {
		var times []uint32
		cur := uint32(rng.Intn(50))
		for i := 0; i < 2000; i++ {
			cur += uint32(rng.Intn(20))
			times = append(times, cur)
		}
		entries := mkEntries(times...)
		logs = append(logs, NodeLog{Node: core.NodeID(n), Entries: entries})
		streams = append(streams, ReaderStream{
			Node: core.NodeID(n),
			R:    bytes.NewReader(Marshal(entries)),
		})
	}
	want := mergeLogs(t, logs)
	m, err := MergeReaders(streams, 256) // small batches force refills
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeReadersPropagatesDecodeError(t *testing.T) {
	good := Marshal(mkEntries(1, 2, 3))
	bad := append(Marshal(mkEntries(1)), 0xFF) // trailing garbage byte
	m, err := MergeReaders([]ReaderStream{
		{Node: 1, R: bytes.NewReader(good)},
		{Node: 2, R: bytes.NewReader(bad)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Drain()
	if err == nil {
		t.Error("decode error in one stream should surface from the merge")
	}
}

// TestMergeReadersReleasesDecodersOnError checks that draining to an error
// shuts down the healthy streams' decode goroutines too.
func TestMergeReadersReleasesDecodersOnError(t *testing.T) {
	before := runtime.NumGoroutine()
	// Big healthy streams (several batches) so their decoders would block
	// producing if the merge abandoned them without cleanup.
	var big []uint32
	for i := uint32(0); i < 2000; i++ {
		big = append(big, i)
	}
	bad := append(Marshal(mkEntries(1)), 0xFF)
	for trial := 0; trial < 5; trial++ {
		m, err := MergeReaders([]ReaderStream{
			{Node: 1, R: bytes.NewReader(Marshal(mkEntries(big...)))},
			{Node: 2, R: bytes.NewReader(Marshal(mkEntries(big...)))},
			{Node: 3, R: bytes.NewReader(bad)},
		}, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Drain(); err == nil {
			t.Fatal("expected decode error")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}
