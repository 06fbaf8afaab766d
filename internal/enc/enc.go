// Package enc is the minimal deterministic binary codec underlying
// machine snapshots (internal/snapshot). It exists as a leaf package so
// every simulator layer (cache, hw, memory, kernel, core) can implement
// its own EncodeState/DecodeState methods against the same wire format
// without import cycles.
//
// The format is byte-deterministic: the same logical state always
// produces the same bytes, so snapshot blobs double as state digests —
// two machines are in identical simulated state if and only if their
// encodings are equal. Integers use unsigned varints (zig-zag for
// signed); slices and maps are length-prefixed, and map entries must be
// written in sorted key order by the caller.
//
// The Reader enforces that canonicality rather than assuming it: it
// rejects a varint with a redundant zero byte and a boolean byte other
// than 0 or 1, so no input has a second spelling of what it decodes
// to. Sparse state — mostly-pristine tables and long frame lists — goes
// through the two list forms of sparse.go, which own their own checks.
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is reported when a Reader runs out of input.
var ErrTruncated = errors.New("enc: truncated input")

// ErrInvalid is reported for input that is not the canonical encoding
// of any state: a non-minimal varint, a boolean byte above 1, or a
// sparse list that breaks its ordering or run rules.
var ErrInvalid = errors.New("enc: invalid encoding")

// Writer accumulates an encoding. The zero value is ready to use.
type Writer struct {
	b []byte
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.b }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.b) }

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// I64 writes a signed (zig-zag) varint.
func (w *Writer) I64(v int64) { w.b = binary.AppendVarint(w.b, v) }

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// F64 writes a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.b = append(w.b, s...)
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(vs []int) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.Int(v)
	}
}

// Reader decodes a Writer's output. Methods return zero values once an
// error has occurred; check Err at the end of decoding.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error (nil if none).
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.pos }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", ErrTruncated, r.pos)
	}
}

// Failf latches an ErrInvalid error carrying the formatted detail, for
// decoders whose own checks reject the input. Later reads return zero
// values, as after a truncation.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d: %s", ErrInvalid, r.pos, fmt.Sprintf(format, args...))
	}
}

// U64 reads an unsigned varint. A varint whose last byte is a redundant
// zero continuation (a second spelling of a shorter one) is invalid.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	if n > 1 && r.b[r.pos+n-1] == 0 {
		r.Failf("non-minimal varint")
		return 0
	}
	r.pos += n
	return v
}

// I64 reads a signed (zig-zag) varint.
func (r *Reader) I64() int64 {
	u := r.U64()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Count reads a length written with Writer.Int and checks it against
// the unread bytes, each entry taking at least one: a negative count,
// or one the input cannot hold, fails the reader and reads as 0, so it
// never sizes an allocation or a loop.
func (r *Reader) Count() int {
	n := r.I64()
	if r.err == nil && (n < 0 || n > int64(r.Remaining())) {
		r.Failf("count %d with %d bytes left", n, r.Remaining())
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.b) {
		r.fail()
		return false
	}
	v := r.b[r.pos]
	if v > 1 {
		r.Failf("boolean byte %d", v)
		return false
	}
	r.pos++
	return v == 1
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U64())
	if r.err != nil {
		return ""
	}
	if n < 0 || r.pos+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n
	return s
}

// U64s reads a length-prefixed []uint64 (nil when empty).
func (r *Reader) U64s() []uint64 {
	n := int(r.U64())
	if r.err != nil || n == 0 {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail()
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// Ints reads a length-prefixed []int (nil when empty).
func (r *Reader) Ints() []int {
	n := int(r.U64())
	if r.err != nil || n == 0 {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail()
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}
