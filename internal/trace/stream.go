package trace

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// DefaultBatchEntries is the batch size the streaming helpers use: large
// enough to amortize reads, small enough that per-node decode buffers stay
// a few tens of kilobytes.
const DefaultBatchEntries = 4096

// ReadBatch decodes up to len(dst) entries into dst with one bulk read,
// returning how many were decoded. It returns io.EOF only with n == 0 at a
// clean end of stream; a trailing partial frame is an error. For a non-empty
// dst, n == 0 always comes with an error. The caller owns dst, so
// steady-state batch decoding allocates nothing.
func (r *Reader) ReadBatch(dst []core.Entry) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	want := len(dst) * EntrySize
	if cap(r.batch) < want {
		r.batch = make([]byte, want)
	}
	buf := r.batch[:want]
	read, err := io.ReadFull(r.r, buf)
	if read == 0 {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("trace: read: %w", err)
	}
	n := read / EntrySize
	for i := 0; i < n; i++ {
		e, derr := Decode(buf[i*EntrySize:])
		if derr != nil {
			return i, fmt.Errorf("trace: entry %d: %w", i, derr)
		}
		dst[i] = e
	}
	// Complete frames are delivered even when the stream ends badly: a
	// trailing partial frame is an error on this call, not silent loss.
	// A mid-frame read failure keeps the underlying error visible so I/O
	// faults are not misdiagnosed as file corruption.
	if rem := read % EntrySize; rem != 0 {
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return n, fmt.Errorf("trace: truncated entry (%d trailing bytes): %w", rem, err)
		}
		return n, fmt.Errorf("trace: truncated entry: %d trailing bytes", rem)
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return n, fmt.Errorf("trace: read: %w", err)
	}
	return n, nil
}

// WriteBatch encodes and emits a whole batch with one underlying write,
// reusing an internal buffer so steady-state encoding allocates nothing.
func (w *Writer) WriteBatch(entries []core.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	want := len(entries) * EntrySize
	if cap(w.batch) < want {
		w.batch = make([]byte, want)
	}
	buf := w.batch[:want]
	for i, e := range entries {
		Encode(buf[i*EntrySize:], e)
	}
	wrote, err := w.w.Write(buf)
	if err != nil {
		return fmt.Errorf("trace: write batch at entry %d: %w", w.n+wrote/EntrySize, err)
	}
	if wrote != want {
		return fmt.Errorf("trace: short write: %d of %d bytes", wrote, want)
	}
	w.n += len(entries)
	return nil
}

// ReaderStream names one node's encoded byte stream.
type ReaderStream struct {
	Node core.NodeID
	R    io.Reader
}

// batchSource is the EntrySource over a Reader: it decodes one batch of
// frames at a time into a reusable buffer and hands them out one by one. A
// batch that ends in an error delivers its complete frames first; then
// every call returns the error.
type batchSource struct {
	r        *Reader
	buf      []core.Entry
	pos, end int
	err      error // what ends the stream once buf[pos:end] is spent
}

// Next implements EntrySource.
func (s *batchSource) Next() (core.Entry, error) {
	if s.pos == s.end {
		if s.err != nil {
			return core.Entry{}, s.err
		}
		s.pos = 0
		if s.end, s.err = s.r.ReadBatch(s.buf); s.end == 0 {
			return core.Entry{}, s.err
		}
	}
	e := s.buf[s.pos]
	s.pos++
	return e, nil
}

// MergeReaders k-way merges several nodes' encoded streams. The merge
// decodes each stream as it pulls from it, batchEntries frames per read
// (<= 0 selects DefaultBatchEntries), so memory is O(k * batchEntries)
// regardless of trace size, and a consumer may stop pulling at any point.
func MergeReaders(streams []ReaderStream, batchEntries int) (*Merger, error) {
	if batchEntries <= 0 {
		batchEntries = DefaultBatchEntries
	}
	merged := make([]Stream, len(streams))
	for i, s := range streams {
		src := &batchSource{r: NewReader(s.R), buf: make([]core.Entry, batchEntries)}
		merged[i] = Stream{Node: s.Node, Source: src}
	}
	return NewMerger(merged)
}
