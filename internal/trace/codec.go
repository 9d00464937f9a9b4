// Package trace implements the binary on-the-wire/on-flash format of Quanto
// log entries and utilities for reading, writing, and merging logs.
//
// Each entry is exactly 12 bytes (Figure 17 / Table 4 of the paper):
//
//	offset 0: uint8  type
//	offset 1: uint8  res_id
//	offset 2: uint32 time (little endian, node-local microseconds)
//	offset 6: uint32 ic   (little endian, cumulative iCount pulses)
//	offset 10: uint16 act or powerstate (little endian)
//
// The MSP430 is a little-endian machine, so the encoded stream matches what
// the mote would dump over its serial back channel byte for byte.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// EntrySize is the encoded entry size in bytes.
const EntrySize = core.EntrySize

// Encode writes e into buf, which must be at least EntrySize bytes long, and
// returns the number of bytes written.
func Encode(buf []byte, e core.Entry) int {
	_ = buf[EntrySize-1]
	buf[0] = byte(e.Type)
	buf[1] = byte(e.Res)
	binary.LittleEndian.PutUint32(buf[2:], e.Time)
	binary.LittleEndian.PutUint32(buf[6:], e.IC)
	binary.LittleEndian.PutUint16(buf[10:], e.Val)
	return EntrySize
}

// Decode parses one entry from buf.
func Decode(buf []byte) (core.Entry, error) {
	if len(buf) < EntrySize {
		return core.Entry{}, fmt.Errorf("trace: short entry: %d bytes", len(buf))
	}
	e := core.Entry{
		Type: core.EntryType(buf[0]),
		Res:  core.ResourceID(buf[1]),
		Time: binary.LittleEndian.Uint32(buf[2:]),
		IC:   binary.LittleEndian.Uint32(buf[6:]),
		Val:  binary.LittleEndian.Uint16(buf[10:]),
	}
	if e.Type == 0 || e.Type > core.EntryMarker {
		return core.Entry{}, fmt.Errorf("trace: invalid entry type %d", buf[0])
	}
	return e, nil
}

// Marshal encodes a whole log into a byte slice.
func Marshal(entries []core.Entry) []byte {
	out := make([]byte, len(entries)*EntrySize)
	for i, e := range entries {
		Encode(out[i*EntrySize:], e)
	}
	return out
}

// Writer streams encoded entries to an io.Writer, standing in for the mote's
// serial back channel.
type Writer struct {
	w     io.Writer
	batch []byte // reusable WriteBatch encode buffer
	n     int
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Count returns the number of entries written.
func (w *Writer) Count() int { return w.n }

// Reader decodes a stream of entries from an io.Reader, a batch at a time
// (ReadBatch).
type Reader struct {
	r     io.Reader
	batch []byte // reusable ReadBatch decode buffer
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }
