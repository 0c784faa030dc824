// Package codec implements the primitive layer of Mykil's compact wire
// format: varint and fixed-width integers, length-prefixed byte strings,
// timestamps, and a bounds-checked reader. Every encoding is
// deterministic — the same value always produces the same bytes — and
// reflection-free, so per-frame serialization carries no type
// descriptors (unlike encoding/gob, which re-emits them on every fresh
// encoder).
//
// Writers are append-style (`b = codec.AppendString(b, s)`) so callers
// can size a buffer once and build a message with zero intermediate
// allocations. The Reader is sticky-error: after the first malformed
// field every subsequent read returns a zero value, and the error is
// reported by Err/Finish. Length prefixes are validated against the
// bytes actually remaining, so a hostile input can never make a decoder
// over-allocate.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"time"
)

// Errors reported by Reader. They are wrapped with positional context;
// match with errors.Is.
var (
	// ErrTruncated reports an input that ended before the field did.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrLength reports a length prefix exceeding the remaining input.
	ErrLength = errors.New("codec: length prefix exceeds input")
	// ErrTrailing reports leftover bytes after a complete decode.
	ErrTrailing = errors.New("codec: trailing bytes")
	// ErrValue reports a field whose bytes decode to an invalid value
	// (e.g. a bool that is neither 0 nor 1, keeping encodings canonical).
	ErrValue = errors.New("codec: invalid value")
)

// ---- Writers ----

// AppendUvarint appends v in unsigned LEB128 form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v in zig-zag LEB128 form.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendUint64 appends v as 8 fixed little-endian bytes — used for
// nonces, whose uniformly random values would cost 9–10 bytes as
// varints.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendByte appends one raw byte.
func AppendByte(b []byte, v byte) []byte { return append(b, v) }

// AppendBool appends 1 for true, 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a uvarint length prefix followed by p.
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends a uvarint length prefix followed by the raw
// bytes of s.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendRaw appends p with no length prefix — for fixed-width fields
// whose size both sides know (e.g. symmetric keys).
func AppendRaw(b, p []byte) []byte { return append(b, p...) }

// AppendTime appends t as wall-clock seconds (varint) and nanoseconds
// (uvarint) since the Unix epoch. Monotonic readings and time zones are
// not transmitted; Reader.Time yields the same instant in UTC.
func AppendTime(b []byte, t time.Time) []byte {
	b = AppendVarint(b, t.Unix())
	return AppendUvarint(b, uint64(t.Nanosecond()))
}

// ---- Reader ----

// Reader decodes a buffer written with the Append functions. The zero
// value is an empty reader; construct with NewReader. Errors are
// sticky: after a failure all reads return zero values.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader copies every
// variable-length field it returns except those read with BorrowBytes,
// so b may be reused once decoding completes unless a borrowed field is
// still in use.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Finish returns the first decoding error, or ErrTrailing if the input
// was not fully consumed.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d byte(s) after message", ErrTrailing, len(r.b)-r.off)
	}
	return nil
}

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", err, r.off)
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a Byte and requires it to be exactly 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(ErrValue)
		return false
	}
}

// UvarintLen returns the minimal LEB128 encoding length of v: what
// AppendUvarint appends for it.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintLen returns what AppendVarint appends for v.
func VarintLen(v int64) int { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// Uvarint reads an unsigned LEB128 integer. Non-minimal encodings
// (trailing zero continuation groups, e.g. 0x80 0x00 for zero) are
// rejected so every value has exactly one wire form.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0:
		r.fail(ErrValue) // 64-bit overflow
		return 0
	case n != UvarintLen(v):
		r.fail(ErrValue) // non-minimal encoding
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag LEB128 integer with the same canonical-form
// requirement as Uvarint.
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Uint64 reads 8 fixed little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Bytes reads a length-prefixed byte string into a fresh slice. A zero
// length yields nil.
func (r *Reader) Bytes() []byte {
	return bytes.Clone(r.BorrowBytes())
}

// BorrowBytes reads a length-prefixed byte string without copying: the
// result is a sub-slice of the Reader's input, capacity clipped so an
// append cannot reach the next field. It stays valid only while the
// input is neither modified nor reused, and keeping it keeps the whole
// input alive — so it is for large fields consumed before the decoder's
// caller returns (a frame's body and signature, rekey ciphertexts, data
// payloads). Bytes is the default. A zero length yields nil.
func (r *Reader) BorrowBytes() []byte {
	n := r.length()
	if n == 0 {
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length()
	if n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Raw reads n unprefixed bytes into a fresh slice.
func (r *Reader) Raw(n int) []byte {
	return bytes.Clone(r.BorrowRaw(n))
}

// BorrowRaw reads n unprefixed bytes without copying, under
// BorrowBytes' rules: the result is a capacity-clipped window onto the
// Reader's input, for fixed-width fields (a digest) compared or copied
// out before the decoder's caller returns.
func (r *Reader) BorrowRaw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.fail(ErrTruncated)
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// Time reads an AppendTime value as a UTC instant.
func (r *Reader) Time() time.Time {
	sec := r.Varint()
	nsec := r.Uvarint()
	if r.err != nil {
		return time.Time{}
	}
	if nsec >= 1e9 {
		r.fail(ErrValue)
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Count reads a uvarint element count for a slice whose elements each
// occupy at least elemMin encoded bytes, rejecting counts that the
// remaining input cannot possibly hold. This is what keeps a hostile
// 10-byte message from demanding a 2^60-element allocation.
func (r *Reader) Count(elemMin int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(r.Len()/elemMin) {
		r.fail(ErrLength)
		return 0
	}
	return int(n)
}

// length reads and bounds-checks a uvarint length prefix.
func (r *Reader) length() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()) {
		r.fail(ErrLength)
		return 0
	}
	return int(n)
}
