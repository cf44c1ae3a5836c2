// Package wire is the one codec behind every container the loader decodes
// before trust is established: SLXO sections and the registry's manifest
// and blob forms. Values are little-endian; strings and byte strings carry
// a u32 length prefix.
//
// Reader is the bounded half. Every read is checked against the bytes that
// remain, every length and count against a caller-given cap, and the first
// failure sticks: later reads return zero values and Done reports it. So a
// decoder reads its fields straight through and checks once at the end, and
// no length field can drive an allocation larger than the input.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Unbounded caps a length or count only by the bytes that follow it.
const Unbounded = math.MaxInt32

// Writer appends encoded values to a byte slice. The zero value is ready to
// use.
type Writer struct {
	buf []byte
}

// U32 appends v.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends v.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Str appends s with its length prefix.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes appends p with its length prefix.
func (w *Writer) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.buf = append(w.buf, p...)
}

// Raw appends p as is, with no length prefix.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Data returns the encoded bytes.
func (w *Writer) Data() []byte { return w.buf }

// Reader decodes values from a byte slice, bounded by its length.
type Reader struct {
	b    []byte
	pkg  string
	what string
	err  error
}

// NewReader returns a Reader over b. Its errors read "<pkg>: truncated
// <what>" and "<pkg>: oversized <what>...".
func NewReader(b []byte, pkg, what string) *Reader {
	return &Reader{b: b, pkg: pkg, what: what}
}

func (r *Reader) fail(kind, detail string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s %s%s", r.pkg, kind, r.what, detail)
		r.b = nil
	}
}

// Raw returns the next n bytes, aliasing the input.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail("truncated", "")
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// U32 reads a u32.
func (r *Reader) U32() uint32 {
	if p := r.Raw(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// U64 reads a u64.
func (r *Reader) U64() uint64 {
	if p := r.Raw(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Count reads a u32 element count and rejects one above max. It also
// rejects a count above the bytes that remain, since every element takes
// at least one byte: a loop over the count is bounded by the input.
func (r *Reader) Count(max int) int {
	n := r.U32()
	switch {
	case r.err != nil:
		return 0
	case uint64(n) > uint64(max):
		r.fail("oversized", fmt.Sprintf(": count %d exceeds cap %d", n, max))
		return 0
	case uint64(n) > uint64(len(r.b)):
		r.fail("truncated", "")
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string of at most max bytes and
// returns a copy (nil when empty).
func (r *Reader) Bytes(max int) []byte {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(max) {
		r.fail("oversized", fmt.Sprintf(": %d-byte field exceeds cap %d", n, max))
	}
	if r.err != nil {
		return nil
	}
	return append([]byte(nil), r.Raw(int(n))...)
}

// Str reads a length-prefixed string of at most max bytes.
func (r *Reader) Str(max int) string { return string(r.Bytes(max)) }

// Rest consumes and returns every remaining byte, aliasing the input.
func (r *Reader) Rest() []byte { return r.Raw(len(r.b)) }

// Len reports the bytes that remain; zero once a read has failed.
func (r *Reader) Len() int { return len(r.b) }

// Err returns the first error any read hit.
func (r *Reader) Err() error { return r.err }

// Done returns the first error any read hit, or an error if bytes remain
// unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("oversized", fmt.Sprintf(": %d trailing bytes", len(r.b)))
	}
	return r.err
}
