package trace

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// FuzzMergeReaders splits arbitrary bytes into one to four node streams at
// offsets the fuzzer chooses and merges them through MergeReaders, decoding
// 1 to 64 frames per read. Nothing may panic, and the merge must deliver
// exactly what the streams hold: a stream holds its frames as ReadBatch
// decodes them, up to the first that fails to decode or whose clock steps
// back (a stamp below the one before it, at least half the wrap period
// forward of it). Each node's share of the output is a prefix of what its
// stream holds, stamped with the unwrapped times; the merge ends in io.EOF
// only when no stream fails, and then the shares are whole; a merge that
// fails first delivers every frame that sorts ahead of the failure; and the
// output is in the order a stable sort by (unwrapped time, node) puts it.
func FuzzMergeReaders(f *testing.F) {
	enc := func(times ...uint32) []byte { return Marshal(mkEntries(times...)) }
	// A normal log: three nodes' streams, cut at frame boundaries, with
	// equal times across nodes.
	f.Add(slices.Concat(enc(1, 5, 9, 12), enc(2, 5, 7), enc(3, 5)), uint8(2), uint16(48), uint16(84), uint16(0), uint8(2))
	// A 32-bit clock wrap on node 1, while node 2's clock stays below it.
	f.Add(slices.Concat(enc(0xFFFF_FFF0, 5, 10), enc(100, 0xFFFF_FFF5)), uint8(1), uint16(36), uint16(0), uint16(0), uint8(0))
	// A truncated frame ending node 1's stream.
	f.Add(slices.Concat(enc(1, 2, 3), []byte{0x06, 0x00}, enc(2, 4)), uint8(1), uint16(38), uint16(0), uint16(0), uint8(63))
	// An invalid type byte in node 2's stream, with a good frame after it.
	bad := enc(1, 3, 4)
	bad[12] = 0xC8
	f.Add(slices.Concat(enc(1, 2), bad), uint8(1), uint16(24), uint16(0), uint16(0), uint8(1))
	// Node 1's clock steps back by 10 us, which no wrap explains.
	f.Add(slices.Concat(enc(1000, 2000, 1990, 3000), enc(1500, 2500)), uint8(1), uint16(48), uint16(0), uint16(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, streams uint8, cut1, cut2, cut3 uint16, batch uint8) {
		if len(data) > 1<<12 {
			return // a few hundred frames reach every path; more only slows the fuzzer
		}
		k := 1 + int(streams)%4
		cuts := []int{0, len(data)}
		for _, c := range []uint16{cut1, cut2, cut3}[:k-1] {
			cuts = append(cuts, int(c)%(len(data)+1))
		}
		slices.Sort(cuts)
		n := 1 + int(batch)%64

		// What each stream holds, and the unwrapped times: each stamp
		// lies its forward distance past the one before it.
		frames := make([][]core.Entry, k)
		times := make([][]int64, k)
		readErrs := make([]error, k)
		in := make([]ReaderStream, k)
		failed := false
		for i := range k {
			part := data[cuts[i]:cuts[i+1]]
			frames[i], readErrs[i] = readFrames(part, n)
			for j, e := range frames[i] {
				at := int64(e.Time)
				if j > 0 {
					prev := frames[i][j-1].Time
					if e.Time < prev && e.Time-prev >= 1<<31 {
						frames[i], readErrs[i] = frames[i][:j], fmt.Errorf("clock steps back at frame %d", j)
						break
					}
					at = times[i][j-1] + int64(e.Time-prev)
				}
				times[i] = append(times[i], at)
			}
			failed = failed || readErrs[i] != nil
			in[i] = ReaderStream{Node: core.NodeID(i + 1), R: bytes.NewReader(part)}
		}

		var got []Stamped
		m, err := MergeReaders(in, n)
		if err == nil {
			got, err = drain(m)
		}
		if err == nil && failed {
			t.Fatalf("merge ended in io.EOF, but a stream fails")
		}
		if err != nil && !failed {
			t.Fatalf("merge failed (%v), but every stream decodes cleanly with a clock that runs forward", err)
		}

		next := make([]int, k)
		for j, s := range got {
			i := int(s.Node) - 1
			if i < 0 || i >= k || next[i] >= len(frames[i]) {
				t.Fatalf("merged[%d] = %+v is not a frame of any stream's remainder", j, s)
			}
			if s.Entry != frames[i][next[i]] || s.TimeUS != times[i][next[i]] {
				t.Fatalf("merged[%d] = %+v, want node %d's frame %d %v at %d us",
					j, s, s.Node, next[i], frames[i][next[i]], times[i][next[i]])
			}
			next[i]++
		}
		if err == nil {
			for i := range k {
				if next[i] != len(frames[i]) {
					t.Fatalf("node %d: %d of %d frames merged before io.EOF", i+1, next[i], len(frames[i]))
				}
			}
		}
		order := func(a, b Stamped) int {
			return cmp.Or(cmp.Compare(a.TimeUS, b.TimeUS), cmp.Compare(a.Node, b.Node))
		}
		if failed {
			// The merge meets the first failure when it takes the last
			// complete frame of the failing stream whose frames end first
			// (at once, if a failing stream has none). Every frame that
			// sorts up to that one must have been delivered.
			var first *Stamped
			for i := range k {
				if readErrs[i] == nil {
					continue
				}
				if len(frames[i]) == 0 {
					first = nil
					break
				}
				last := Stamped{Node: core.NodeID(i + 1), TimeUS: times[i][len(times[i])-1]}
				if first == nil || order(last, *first) < 0 {
					first = &last
				}
			}
			for i := range k {
				for j := next[i]; first != nil && j < len(frames[i]); j++ {
					if order(Stamped{Node: core.NodeID(i + 1), TimeUS: times[i][j]}, *first) <= 0 {
						t.Fatalf("node %d's frame %d sorts ahead of the failure but was not delivered", i+1, j)
					}
				}
			}
		}
		sorted := slices.Clone(got)
		slices.SortStableFunc(sorted, order)
		if !slices.Equal(sorted, got) {
			t.Fatalf("merged output is not in (unwrapped time, node) order")
		}
	})
}
