package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(typ uint8, res uint8, time, ic uint32, val uint16) bool {
		e := core.Entry{
			Type: core.EntryType(typ%6 + 1),
			Res:  core.ResourceID(res),
			Time: time,
			IC:   ic,
			Val:  val,
		}
		var buf [EntrySize]byte
		if n := Encode(buf[:], e); n != EntrySize {
			return false
		}
		got, err := Decode(buf[:])
		return err == nil && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntryIsExactly12Bytes(t *testing.T) {
	if EntrySize != 12 {
		t.Fatalf("EntrySize = %d, want 12 (Figure 17)", EntrySize)
	}
	e := core.Entry{Type: core.EntryPowerState, Res: 1, Time: 0xA1B2C3D4, IC: 0x11223344, Val: 0x5566}
	data := Marshal([]core.Entry{e})
	if len(data) != 12 {
		t.Fatalf("marshaled size = %d", len(data))
	}
	// Little-endian layout, as the MSP430 would write it.
	if data[0] != 1 || data[1] != 1 {
		t.Errorf("header bytes = %v", data[:2])
	}
	if data[2] != 0xD4 || data[5] != 0xA1 {
		t.Errorf("time bytes = %v", data[2:6])
	}
	if data[6] != 0x44 || data[9] != 0x11 {
		t.Errorf("ic bytes = %v", data[6:10])
	}
	if data[10] != 0x66 || data[11] != 0x55 {
		t.Errorf("val bytes = %v", data[10:])
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	if _, err := Decode(make([]byte, 5)); err == nil {
		t.Error("short buffer should fail")
	}
	bad := make([]byte, EntrySize)
	bad[0] = 0 // invalid type
	if _, err := Decode(bad); err == nil {
		t.Error("type 0 should fail")
	}
	bad[0] = 200
	if _, err := Decode(bad); err == nil {
		t.Error("type 200 should fail")
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	entries := []core.Entry{
		{Type: core.EntryPowerState, Res: 1, Time: 10, IC: 1, Val: 1},
		{Type: core.EntryActivitySet, Res: 2, Time: 20, IC: 2, Val: 0x0102},
		{Type: core.EntryActivityBind, Res: 2, Time: 30, IC: 3, Val: 0x0403},
	}
	got, err := Unmarshal(Marshal(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], entries[i])
		}
	}
}

func TestUnmarshalRejectsPartialEntries(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 13)); err == nil {
		t.Error("stream with trailing partial entry should fail")
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := make([]core.Entry, 50)
	for i := range want {
		want[i] = core.Entry{Type: core.EntryMarker, Res: 3, Time: uint32(i), IC: uint32(i * 2), Val: uint16(i)}
		if err := w.Write(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 50 {
		t.Errorf("Count = %d", w.Count())
	}
	r := NewReader(&buf)
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("read %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d mismatch", i)
		}
	}
	// A fresh read hits clean EOF.
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestMergeOrdersAcrossNodes(t *testing.T) {
	logs := []NodeLog{
		{Node: 2, Entries: []core.Entry{
			{Type: core.EntryMarker, Time: 5},
			{Type: core.EntryMarker, Time: 15},
		}},
		{Node: 1, Entries: []core.Entry{
			{Type: core.EntryMarker, Time: 10},
			{Type: core.EntryMarker, Time: 15},
		}},
	}
	merged := mergeLogs(t, logs)
	if len(merged) != 4 {
		t.Fatalf("merged %d entries", len(merged))
	}
	wantOrder := []struct {
		node core.NodeID
		time uint32
	}{{2, 5}, {1, 10}, {1, 15}, {2, 15}}
	for i, w := range wantOrder {
		if merged[i].Node != w.node || merged[i].Time != w.time {
			t.Errorf("merged[%d] = node %d t=%d, want node %d t=%d",
				i, merged[i].Node, merged[i].Time, w.node, w.time)
		}
	}
}

func TestSplitByNodeInvertsMerge(t *testing.T) {
	logs := []NodeLog{
		{Node: 1, Entries: []core.Entry{{Type: core.EntryMarker, Time: 1}, {Type: core.EntryMarker, Time: 9}}},
		{Node: 4, Entries: []core.Entry{{Type: core.EntryMarker, Time: 3}}},
	}
	back := SplitByNode(mergeLogs(t, logs))
	if len(back) != 2 {
		t.Fatalf("split into %d logs", len(back))
	}
	if back[0].Node != 1 || len(back[0].Entries) != 2 {
		t.Errorf("node 1 log wrong: %+v", back[0])
	}
	if back[1].Node != 4 || len(back[1].Entries) != 1 {
		t.Errorf("node 4 log wrong: %+v", back[1])
	}
}

func TestUnwrapTimes(t *testing.T) {
	entries := []core.Entry{
		{Time: 0xFFFF_FFF0},
		{Time: 0xFFFF_FFFF},
		{Time: 5}, // wrapped
		{Time: 10},
		{Time: 3}, // wrapped again
	}
	ts := UnwrapTimes(entries)
	want := []int64{0xFFFF_FFF0, 0xFFFF_FFFF, 1<<32 + 5, 1<<32 + 10, 2<<32 + 3}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("ts[%d] = %d, want %d", i, ts[i], want[i])
		}
	}
}

func TestUnwrapTimesMonotonic(t *testing.T) {
	f := func(deltas []uint16) bool {
		var entries []core.Entry
		var cur uint32
		for _, d := range deltas {
			cur += uint32(d)
			entries = append(entries, core.Entry{Time: cur})
		}
		ts := UnwrapTimes(entries)
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
