// Package wire is the little-endian binary codec of the engine image: an
// append-only Writer and a bounds-checked Reader with a sticky error. It
// uses no reflection. Counts are uvarints, signed integers zigzag varints,
// and fixed-width fields (instruction operands, float constants) are raw
// little-endian words, so a reader copies them without parsing.
//
// The Reader never panics and never allocates more than its input can
// back: Count refuses any element count that the remaining bytes cannot
// hold at the stated minimum element size.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Writer appends encoded values to a byte slice.
type Writer struct{ b []byte }

// NewWriter returns a writer whose buffer starts with capacity n.
func NewWriter(n int) *Writer { return &Writer{b: make([]byte, 0, n)} }

// Bytes returns the encoded bytes.
func (w *Writer) Bytes() []byte { return w.b }

func (w *Writer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *Writer) Varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *Writer) Int(v int)        { w.Varint(int64(v)) }
func (w *Writer) Count(n int)      { w.Uvarint(uint64(n)) }
func (w *Writer) Byte(v byte)      { w.b = append(w.b, v) }
func (w *Writer) Uint32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *Writer) Int32(v int32)    { w.Uint32(uint32(v)) }
func (w *Writer) Float32(v float32) {
	w.Uint32(math.Float32bits(v))
}
func (w *Writer) Float64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

func (w *Writer) String(s string) {
	w.Count(len(s))
	w.b = append(w.b, s...)
}

// Float32s writes a count and the values as raw little-endian words.
func (w *Writer) Float32s(v []float32) {
	w.Count(len(v))
	w.b = w.grow(4 * len(v))
	for _, f := range v {
		w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(f))
	}
}

func (w *Writer) grow(n int) []byte {
	if cap(w.b)-len(w.b) >= n {
		return w.b
	}
	nb := make([]byte, len(w.b), 2*cap(w.b)+n)
	copy(nb, w.b)
	return nb
}

// ErrTruncated reports input that ends inside a value.
var ErrTruncated = errors.New("wire: truncated input")

// Reader decodes values from a byte slice. After the first failure every
// read returns a zero value and Err reports the failure.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Fail records a failure (the first one wins) and returns it.
func (r *Reader) Fail(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("wire: at byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err = fmt.Errorf("%w at byte %d (need %d, have %d)", ErrTruncated, r.off, n, len(r.b)-r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a varint that must fit in an int32-sized range: every
// integer the image stores (sizes, indices, slots, extents) does, and
// bounding it keeps arithmetic on decoded values from overflowing.
func (r *Reader) Int() int {
	v := r.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.Fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Int64 reads a varint of full width.
func (r *Reader) Int64() int64 { return r.Varint() }

// Count reads an element count and refuses one the remaining input cannot
// hold at minSize bytes per element.
func (r *Reader) Count(minSize int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if v > uint64(r.Remaining()/minSize) {
		r.Fail("count %d exceeds the remaining %d bytes", v, r.Remaining())
		return 0
	}
	return int(v)
}

func (r *Reader) Byte() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail("bad bool")
	return false
}

func (r *Reader) Float64() float64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s))
}

func (r *Reader) String() string {
	n := r.Count(1)
	return string(r.take(n))
}

// Raw returns the next n bytes without copying them.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Float32s reads a count and that many raw little-endian words.
func (r *Reader) Float32s() []float32 {
	n := r.Count(4)
	s := r.take(4 * n)
	if s == nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(s[4*i:]))
	}
	return out
}
