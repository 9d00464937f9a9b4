package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func mkEntries(times ...uint32) []core.Entry {
	out := make([]core.Entry, len(times))
	for i, t := range times {
		out[i] = core.Entry{Type: core.EntryMarker, Time: t, IC: uint32(i), Val: uint16(i)}
	}
	return out
}

// nodeLog is one node's in-memory log, a merge input.
type nodeLog struct {
	node    core.NodeID
	entries []core.Entry
}

// mergeLogs interleaves in-memory logs through a Merger over slice sources.
func mergeLogs(t *testing.T, logs []nodeLog) []Stamped {
	t.Helper()
	streams := make([]Stream, len(logs))
	for i, l := range logs {
		streams[i] = Stream{Node: l.node, Source: NewSliceSource(l.entries)}
	}
	m, err := NewMerger(streams)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drain pulls the rest of a merge, up to the error that ends it: nil at
// io.EOF.
func drain(m *Merger) ([]Stamped, error) {
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
	// Node 1's clock wraps: the post-wrap entry (raw time 50) happened AFTER
	// raw time 4,294,967,200 and must sort after it — and after node 2's
	// entries, which all predate the wrap. The seed's concat+sort merge
	// ordered by raw uint32 time and got this wrong.
	logs := []nodeLog{
		{1, mkEntries(4_294_967_200, 50)},
		{2, mkEntries(100, 0xFFFF_FFF5)},
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
		{1, 4_294_967_200, 4_294_967_200},
		{2, 0xFFFF_FFF5, 0xFFFF_FFF5},
		{1, 50, 1<<32 + 50},
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
		var logs []nodeLog
		for n := 1; n <= 1+rng.Intn(5); n++ {
			var times []uint32
			cur := uint32(rng.Intn(100))
			for i := 0; i < rng.Intn(40); i++ {
				cur += uint32(rng.Intn(3)) // duplicates are common
				times = append(times, cur)
			}
			logs = append(logs, nodeLog{core.NodeID(n), mkEntries(times...)})
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
func mergeSortBaseline(logs []nodeLog) []Stamped {
	total := 0
	for _, l := range logs {
		total += len(l.entries)
	}
	out := make([]Stamped, 0, total)
	for _, l := range logs {
		for _, e := range l.entries {
			out = append(out, Stamped{Node: l.node, Entry: e})
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

// TestMergeSplitRoundTripProperty checks that splitting a merge back by
// node returns every node's entries in their original order, for arbitrary
// clocks that run forward and wrap: each stamp lies less than half the
// wrap period past the one before it.
func TestMergeSplitRoundTripProperty(t *testing.T) {
	f := func(start [3]uint32, steps [3][]uint32) bool {
		logs := make([]nodeLog, 3)
		for i := range logs {
			times := make([]uint32, len(steps[i]))
			cur := start[i]
			for j, d := range steps[i] {
				cur += d % (1 << 31)
				times[j] = cur
			}
			logs[i] = nodeLog{core.NodeID(i + 1), mkEntries(times...)}
		}
		back := make(map[core.NodeID][]core.Entry)
		for _, s := range mergeLogs(t, logs) {
			back[s.Node] = append(back[s.Node], s.Entry)
		}
		for _, l := range logs {
			if !slices.Equal(back[l.node], l.entries) {
				return false
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

// TestReadTruncatedFrame reads a stream ending in a partial frame one frame
// per call: the complete frame comes first with no error, and the partial
// frame, alone in the next call, is an error rather than a clean end.
func TestReadTruncatedFrame(t *testing.T) {
	data := Marshal(mkEntries(1))
	data = append(data, 0x06, 0x00, 0x07) // 3-byte partial frame
	r := NewReader(bytes.NewReader(data))
	one := make([]core.Entry, 1)
	if n, err := r.ReadBatch(one); n != 1 || err != nil {
		t.Fatalf("first full frame: %d, %v", n, err)
	}
	if n, err := r.ReadBatch(one); n != 0 || err == nil || err == io.EOF {
		t.Errorf("partial trailing frame = %d, %v; want 0 and an error", n, err)
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
	if err := w.WriteBatch(mkEntries(1)); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := w.WriteBatch(mkEntries(2)); err == nil {
		t.Error("write past the failure point should error")
	}
	if w.Count() != 1 {
		t.Errorf("Count = %d after a failed write, want 1", w.Count())
	}
	if err := NewWriter(&failWriter{limit: 17}).WriteBatch(mkEntries(1, 2, 3)); err == nil {
		t.Error("batch write past the failure point should error")
	}
}

// readFrames decodes data through Reader.ReadBatch, batch frames per call,
// and returns every complete frame up to the first error, and that error
// (nil at a clean end of stream).
func readFrames(data []byte, batch int) ([]core.Entry, error) {
	r := NewReader(bytes.NewReader(data))
	dst := make([]core.Entry, batch)
	var out []core.Entry
	for {
		n, err := r.ReadBatch(dst)
		out = append(out, dst[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

func TestMergeReadersMatchesInMemoryMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var logs []nodeLog
	for n := 1; n <= 4; n++ {
		var times []uint32
		cur := uint32(rng.Intn(50))
		for i := 0; i < 2000; i++ {
			cur += uint32(rng.Intn(20))
			times = append(times, cur)
		}
		logs = append(logs, nodeLog{core.NodeID(n), mkEntries(times...)})
	}
	want := mergeLogs(t, logs)
	// One frame per read, a size that divides no log, one small enough to
	// force refills, and the default.
	for _, batch := range []int{1, 7, 256, 0} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			streams := make([]ReaderStream, len(logs))
			for i, l := range logs {
				streams[i] = ReaderStream{Node: l.node, R: bytes.NewReader(Marshal(l.entries))}
			}
			m, err := MergeReaders(streams, batch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := drain(m)
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
		})
	}
}

// TestMergeReadersPropagatesDecodeError checks Merger.Next's no-silent-loss
// contract on a stream that fails mid-merge, by a truncated frame, by an
// invalid type byte with good frames after it, or by a clock that steps
// back, which no 32-bit wrap explains: the failure surfaces as an error
// that says what failed, not io.EOF, and every complete frame that sorts
// ahead of it — node 2's frames before the failure, and node 1's frames up
// to the last of them — is delivered first, in merge order, followed by
// the one frame of node 1 the merge had already pulled.
func TestMergeReadersPropagatesDecodeError(t *testing.T) {
	good := mkEntries(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	head := mkEntries(1, 4, 6) // node 2's frames before the failure
	invalid := Marshal(mkEntries(8, 9))
	invalid[0] = 0xC8 // type 200: the frame at t=8 cannot decode
	fails := map[string][]byte{
		"truncated":  append(Marshal(head), 0xFF),
		"invalid":    append(Marshal(head), invalid...),
		"steps back": append(Marshal(head), Marshal(mkEntries(5, 9))...),
	}
	wantErr := map[string]string{
		"truncated":  "truncated entry",
		"invalid":    "invalid entry type 200",
		"steps back": "node 2: trace: entry 3: clock steps back from 6 to 5 us",
	}
	// Everything that sorts ahead of the failure: the in-memory merge of
	// both logs, up to and including node 2's frame at t=6. Node 1's frame
	// at t=7 was already pulled when node 2 failed, so it is delivered too;
	// nothing after it is.
	want := mergeLogs(t, []nodeLog{{1, good[:7]}, {2, head}})
	for _, name := range []string{"truncated", "invalid", "steps back"} {
		for _, batch := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				m, err := MergeReaders([]ReaderStream{
					{Node: 1, R: bytes.NewReader(Marshal(good))},
					{Node: 2, R: bytes.NewReader(fails[name])},
				}, batch)
				if err != nil {
					t.Fatal(err)
				}
				got, err := drain(m)
				if err == nil || !strings.Contains(err.Error(), wantErr[name]) {
					t.Fatalf("merge ended with %v, want an error naming %q", err, wantErr[name])
				}
				if len(got) != len(want) {
					t.Fatalf("%d entries delivered before the error, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("delivered[%d] = %+v, want %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestMergeReadersReleasesDecodersOnError checks that a merge holds nothing
// a consumer must release: drained to a decode error, or abandoned after
// its first entry, it leaves no goroutine behind.
func TestMergeReadersReleasesDecodersOnError(t *testing.T) {
	before := runtime.NumGoroutine()
	// Healthy streams of several batches each, beside one that fails.
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
		if trial%2 == 0 {
			if _, err := drain(m); err == nil {
				t.Fatal("expected decode error")
			}
		} else if _, err := m.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines left behind: %d before, %d after", before, now)
	}
}
