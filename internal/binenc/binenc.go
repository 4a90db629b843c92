// Package binenc is the bounded reader, and the matching append
// helpers, behind the repository's binary formats: prepared-state
// snapshots and incremental-mining states. Both are read back from
// journals and from tenant bundles another server wrote, so a decoder
// must turn any input into a value or an error, never a panic or an
// allocation the input's size does not pay for.
//
// The Reader keeps the first failure and turns every later read into a
// no-op that returns a zero value, so a decoder reads a whole structure
// and checks once, at Done. Count is the one place that enforces the
// size rule: a list's length must fit in the bytes left, given the
// fewest bytes one of its items can take.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendFloat appends f as 8 little-endian bytes of its IEEE-754 bit
// pattern, so every value, NaNs and signed zeros included, crosses
// exactly.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader consumes a byte slice. The zero Reader reads an empty input.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. It does not copy b; Str and Bytes
// copy what they return.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// left returns the number of unread bytes.
func (r *Reader) left() int { return len(r.buf) - r.off }

// Fail records a decoding failure at the current offset, unless one is
// already recorded. Decoders call it for values that read correctly but
// break the format's rules.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("at offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// Done returns the first failure, or an error when bytes are left
// unread.
func (r *Reader) Done() error {
	if r.err == nil && r.left() > 0 {
		r.Fail("%d trailing bytes", r.left())
	}
	return r.err
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("truncated or oversized varint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("truncated or oversized varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a signed varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count reads the length of a list whose items take at least minBytes
// (≥ 1) each, and fails on one the bytes left cannot hold. A hostile
// length therefore fails before anything is allocated for it, and the
// returned count always fits an int.
func (r *Reader) Count(minBytes int) int {
	c := r.Uvarint()
	if r.err == nil && c > uint64(r.left()/minBytes) {
		r.Fail("count %d exceeds the %d bytes left", c, r.left())
		return 0
	}
	return int(c)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.left() < 1 {
		r.Fail("truncated")
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// Float reads what AppendFloat wrote.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if r.left() < 8 {
		r.Fail("truncated float")
		return 0
	}
	r.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off-8:]))
}

// Str reads what AppendString wrote, as a string.
func (r *Reader) Str() string { return string(r.raw()) }

// Bytes reads what AppendString wrote, as a fresh byte slice.
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.raw()...) }

// raw returns the next length-prefixed run of bytes without copying.
func (r *Reader) raw() []byte {
	n := r.Count(1)
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}
