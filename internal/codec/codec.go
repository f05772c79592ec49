// Package codec is RIOT's one binary field encoder. The catalog's
// manifest, segment headers and WAL publish records, the WAL's record
// frames and the cluster's remote frames all write their fields through
// it, and the catalog and cluster decoders read them back through it.
//
// Byte order is little-endian throughout — the host layout of the
// float64 tiles the fields describe, and what the catalog's files have
// always held. A Writer appends fields to a byte slice. A Reader consumes
// them with a sticky first error, so a decoder reads a run of fields and
// checks Err once. Every count-driven read (Str, Bytes, F64s, Count)
// checks its count against the bytes left before it multiplies or
// allocates: no input, however corrupt, makes a Reader allocate more
// than the input's own length.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

var le = binary.LittleEndian

// ErrTruncated is wrapped by every error a Reader reports for a field
// or count that runs past the end of its input.
var ErrTruncated = errors.New("codec: truncated input")

// Writer appends little-endian fields to a byte slice. The zero value is
// ready to use.
type Writer struct{ b []byte }

// NewWriter returns a Writer whose buffer has room for size bytes, for
// encoders that know their output size up front.
func NewWriter(size int) *Writer { return &Writer{b: make([]byte, 0, size)} }

// Bytes returns the encoded bytes. They alias the Writer's buffer until
// the next append.
func (w *Writer) Bytes() []byte { return w.b }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.b) }

// Write appends p verbatim. It implements io.Writer and never fails.
func (w *Writer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.b = append(w.b, v) }

// U32 appends a 4-byte unsigned integer.
func (w *Writer) U32(v uint32) { w.b = le.AppendUint32(w.b, v) }

// U64 appends an 8-byte unsigned integer.
func (w *Writer) U64(v uint64) { w.b = le.AppendUint64(w.b, v) }

// I64 appends an 8-byte two's-complement integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Str appends a string as its U32 byte length, then its bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// F64s appends vals as 8-byte IEEE 754 bit patterns. The count is not
// written: the caller's framing says how many follow.
func (w *Writer) F64s(vals []float64) {
	off := len(w.b)
	w.b = slices.Grow(w.b, 8*len(vals))[:off+8*len(vals)]
	PutF64s(w.b[off:], vals)
}

// PatchU32 overwrites the U32 written at byte offset off, for a count
// that is known only after the fields it counts.
func (w *Writer) PatchU32(off int, v uint32) { le.PutUint32(w.b[off:], v) }

// PutF64s encodes vals into dst, which must hold 8·len(vals) bytes.
func PutF64s(dst []byte, vals []float64) {
	dst = dst[:8*len(vals)]
	for i, v := range vals {
		le.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// GetF64s decodes len(dst) values from src, which must hold 8·len(dst)
// bytes.
func GetF64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(src[8*i:]))
	}
}

// Reader decodes little-endian fields from a byte slice. The first error
// sticks: later reads return zero values, and Err reports it.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. Bytes and Str results alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error the Reader met, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err as the Reader's error unless one is already set, so
// a decoder's own validation failures stick like truncation does.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.b) }

// Bytes returns the next n bytes, aliasing the input, or nil when fewer
// than n are left.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("%w: %d bytes wanted, %d left", ErrTruncated, n, len(r.b))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if p := r.Bytes(1); p != nil {
		return p[0]
	}
	return 0
}

// U32 reads a 4-byte unsigned integer.
func (r *Reader) U32() uint32 {
	if p := r.Bytes(4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

// U64 reads an 8-byte unsigned integer.
func (r *Reader) U64() uint64 {
	if p := r.Bytes(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

// I64 reads an 8-byte two's-complement integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Str reads a string written by Writer.Str. Its length is checked
// against the bytes left before the string is allocated.
func (r *Reader) Str() string { return string(r.Bytes(int(r.U32()))) }

// Count checks that n elements of elemSize bytes each fit in the bytes
// left and returns n; otherwise it records an error and returns 0. Call
// it before allocating anything sized by a decoded count. The check
// divides rather than multiplies, so no count can overflow it.
func (r *Reader) Count(n, elemSize int) int {
	if r.err != nil {
		return 0
	}
	if n < 0 || n > len(r.b)/elemSize {
		r.err = fmt.Errorf("%w: %d bytes left, too few for %d values of %d bytes", ErrTruncated, len(r.b), n, elemSize)
		return 0
	}
	return n
}

// F64s reads n values written by Writer.F64s. n is checked against the
// bytes left before anything is multiplied or allocated.
func (r *Reader) F64s(n int) []float64 {
	p := r.Bytes(8 * r.Count(n, 8))
	if r.err != nil {
		return nil
	}
	vals := make([]float64, n)
	GetF64s(vals, p)
	return vals
}
