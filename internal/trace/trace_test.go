package trace

import (
	"bytes"
	"io"
	"slices"
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
	got, err := readFrames(Marshal(entries), DefaultBatchEntries)
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

// TestWriterReaderStream streams a log through a Writer in several batches
// and back through a Reader in batches of another size: Count adds up
// across batches, the entries come back in order, and a read after the end
// of the stream is a clean io.EOF again.
func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := make([]core.Entry, 50)
	for i := range want {
		want[i] = core.Entry{Type: core.EntryMarker, Res: 3, Time: uint32(i), IC: uint32(i * 2), Val: uint16(i)}
	}
	for rest := want; len(rest) > 0; {
		chunk := rest[:min(7, len(rest))]
		if err := w.WriteBatch(chunk); err != nil {
			t.Fatal(err)
		}
		rest = rest[len(chunk):]
	}
	if w.Count() != 50 {
		t.Errorf("Count = %d", w.Count())
	}
	r := NewReader(&buf)
	var got []core.Entry
	dst := make([]core.Entry, 16)
	for {
		n, err := r.ReadBatch(dst)
		got = append(got, dst[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 50 {
		t.Fatalf("read %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d mismatch", i)
		}
	}
	if n, err := r.ReadBatch(dst); n != 0 || err != io.EOF {
		t.Errorf("read past the end = %d, %v; want 0, EOF", n, err)
	}
}

func TestMergeOrdersAcrossNodes(t *testing.T) {
	logs := []nodeLog{
		{2, mkEntries(5, 15)},
		{1, mkEntries(10, 15)},
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

// TestUnwrapTimes is the wrap rule: a stamp below the one before it is a
// wrap, adding 2^32 us, only when the forward distance to it is under 2^31
// us. Otherwise the clock stepped back, and At fails naming the entry and
// both stamps: a 10 us step back, or a stamp exactly half the period
// forward past a wrap (one microsecond less is a wrap).
func TestUnwrapTimes(t *testing.T) {
	for _, c := range []struct {
		stamps []uint32
		want   []int64 // unwrapped times; the stamp after them fails
		err    string
	}{
		{
			[]uint32{0xFFFF_FFF0, 0xFFFF_FFFF, 5, 0x8000_0000, 0xFFFF_FFF0, 3, 3},
			[]int64{0xFFFF_FFF0, 0xFFFF_FFFF, 1<<32 + 5, 1<<32 + 0x8000_0000, 1<<32 + 0xFFFF_FFF0, 2<<32 + 3, 2<<32 + 3},
			"",
		},
		{[]uint32{4_294_967_200, 50}, []int64{4_294_967_200, 1<<32 + 50}, ""},
		{[]uint32{1000, 2000, 1990, 3000}, []int64{1000, 2000}, "trace: entry 2: clock steps back from 2000 to 1990 us"},
		{[]uint32{1<<31 + 1, 0}, []int64{1<<31 + 1, 1 << 32}, ""},
		{[]uint32{1 << 31, 0}, []int64{1 << 31}, "trace: entry 1: clock steps back from 2147483648 to 0 us"},
	} {
		var uw Unwrapper
		var got []int64
		var err error
		for _, ts := range c.stamps {
			var at int64
			if at, err = uw.At(ts); err != nil {
				break
			}
			got = append(got, at)
		}
		if !slices.Equal(got, c.want) || (err == nil) != (c.err == "") || err != nil && err.Error() != c.err {
			t.Errorf("stamps %v: unwrapped %v, error %v; want %v, error %q", c.stamps, got, err, c.want, c.err)
		}
	}
}

// TestUnwrapTimesMonotonic: a clock that only runs forward, by steps under
// half the wrap period, unwraps to non-decreasing times that advance by
// exactly each step, whatever its start.
func TestUnwrapTimesMonotonic(t *testing.T) {
	f := func(start uint32, steps []uint32) bool {
		var uw Unwrapper
		cur := start
		prev, err := uw.At(cur)
		if err != nil {
			return false
		}
		for _, d := range steps {
			d %= 1 << 31
			cur += d
			at, err := uw.At(cur)
			if err != nil || at != prev+int64(d) {
				return false
			}
			prev = at
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
