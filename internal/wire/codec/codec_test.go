package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"
)

func TestScalarRoundTrip(t *testing.T) {
	var b []byte
	now := time.Date(2026, 8, 5, 12, 30, 45, 987654321, time.UTC)
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -7)
	b = AppendUint64(b, math.MaxUint64)
	b = AppendByte(b, 0x42)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "héllo")
	b = AppendRaw(b, []byte{9, 9})
	b = AppendTime(b, now)

	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Uint64(); v != math.MaxUint64 {
		t.Errorf("Uint64 = %d", v)
	}
	if v := r.Byte(); v != 0x42 {
		t.Errorf("Byte = %x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.String(); v != "héllo" {
		t.Errorf("String = %q", v)
	}
	if v := r.Raw(2); !bytes.Equal(v, []byte{9, 9}) {
		t.Errorf("Raw = %v", v)
	}
	if v := r.Time(); !v.Equal(now) {
		t.Errorf("Time = %v, want %v", v, now)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestEmptyBytesDecodeNil(t *testing.T) {
	b := AppendBytes(nil, nil)
	b = AppendString(b, "")
	r := NewReader(b)
	if v := r.Bytes(); v != nil {
		t.Errorf("Bytes = %v, want nil", v)
	}
	if v := r.String(); v != "" {
		t.Errorf("String = %q", v)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{0x05, 0x01}) // claims 5 bytes, has 1
	if v := r.Bytes(); v != nil {
		t.Errorf("Bytes on truncated input = %v", v)
	}
	if !errors.Is(r.Err(), ErrLength) {
		t.Errorf("Err = %v, want ErrLength", r.Err())
	}
	// Sticky: further reads fail quietly.
	if v := r.Uint64(); v != 0 {
		t.Errorf("post-error Uint64 = %d", v)
	}
}

func TestReaderTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Finish(); !errors.Is(err, ErrTrailing) {
		t.Errorf("Finish = %v, want ErrTrailing", err)
	}
}

func TestBoolRejectsNonCanonical(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if !errors.Is(r.Err(), ErrValue) {
		t.Errorf("Err = %v, want ErrValue", r.Err())
	}
}

func TestCountRejectsHugeClaims(t *testing.T) {
	// Claims 2^60 elements of at least 17 bytes each on a 3-byte input.
	b := AppendUvarint(nil, 1<<60)
	r := NewReader(b)
	if n := r.Count(17); n != 0 {
		t.Errorf("Count = %d, want 0", n)
	}
	if !errors.Is(r.Err(), ErrLength) {
		t.Errorf("Err = %v, want ErrLength", r.Err())
	}
}

func TestUvarintRejectsNonMinimal(t *testing.T) {
	cases := [][]byte{
		{0x80, 0x00},                   // 0 in two bytes
		{0xFF, 0x00},                   // 127 in two bytes
		{0x80, 0x80, 0x80, 0x80, 0x00}, // 0 in five bytes
	}
	for _, in := range cases {
		r := NewReader(in)
		r.Uvarint()
		if !errors.Is(r.Err(), ErrValue) {
			t.Errorf("Uvarint(% x): err = %v, want ErrValue", in, r.Err())
		}
	}
	// The minimal forms still decode.
	r := NewReader([]byte{0x00, 0x7F})
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d, want 0", v)
	}
	if v := r.Uvarint(); v != 127 {
		t.Errorf("Uvarint = %d, want 127", v)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestUvarintRejectsOverflow(t *testing.T) {
	// Eleven continuation bytes: exceeds 64 bits.
	in := bytes.Repeat([]byte{0xFF}, 10)
	in = append(in, 0x7F)
	r := NewReader(in)
	r.Uvarint()
	if !errors.Is(r.Err(), ErrValue) {
		t.Errorf("err = %v, want ErrValue", r.Err())
	}
}

func TestVarintRoundTripExtremes(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64} {
		b := AppendVarint(nil, v)
		r := NewReader(b)
		if got := r.Varint(); got != v {
			t.Errorf("Varint(%d) = %d", v, got)
		}
		if err := r.Finish(); err != nil {
			t.Errorf("Varint(%d) Finish: %v", v, err)
		}
		if VarintLen(v) != len(b) {
			t.Errorf("VarintLen(%d) = %d, AppendVarint wrote %d", v, VarintLen(v), len(b))
		}
	}
}

func TestTimeRejectsOverflowNanos(t *testing.T) {
	b := AppendVarint(nil, 0)
	b = AppendUvarint(b, 2e9)
	r := NewReader(b)
	r.Time()
	if !errors.Is(r.Err(), ErrValue) {
		t.Errorf("Err = %v, want ErrValue", r.Err())
	}
}

func TestReaderDoesNotAliasInput(t *testing.T) {
	src := AppendBytes(nil, []byte{7, 7, 7})
	r := NewReader(src)
	got := r.Bytes()
	src[1] = 0xFF
	if !bytes.Equal(got, []byte{7, 7, 7}) {
		t.Errorf("decoded bytes alias the input buffer: %v", got)
	}
}

// TestBorrowBytesAliasesInput pins the one non-copying read: the result
// is a window onto the input (a later write to the input shows through),
// its capacity stops at the field so an append cannot reach the next
// one, and an over-long length prefix is rejected exactly as Bytes
// rejects it.
func TestBorrowBytesAliasesInput(t *testing.T) {
	src := AppendBytes(nil, []byte{7, 7, 7})
	src = AppendBytes(src, nil)
	src = AppendByte(src, 0x42)
	r := NewReader(src)
	got := r.BorrowBytes()
	if &got[0] != &src[1] || len(got) != 3 || cap(got) != 3 {
		t.Fatalf("BorrowBytes = %v (cap %d), want a 3-byte window at src[1:4]", got, cap(got))
	}
	if empty := r.BorrowBytes(); empty != nil {
		t.Errorf("empty field = %v, want nil", empty)
	}
	src[2] = 0xFF
	if got[1] != 0xFF {
		t.Error("borrowed bytes do not alias the input")
	}
	_ = append(got, 0x99)
	if v := r.Byte(); v != 0x42 {
		t.Errorf("append to a borrowed field overwrote the next one: %#x", v)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}

	r = NewReader([]byte{0x05, 0x01}) // claims 5 bytes, has 1
	if v := r.BorrowBytes(); v != nil || !errors.Is(r.Err(), ErrLength) {
		t.Errorf("truncated input: %v, err %v, want nil and ErrLength", v, r.Err())
	}
}

// TestBorrowRawAliasesInput: the fixed-width borrow is a clipped window
// like BorrowBytes', and Raw stays its copying form.
func TestBorrowRawAliasesInput(t *testing.T) {
	src := []byte{1, 2, 3, 4, 0x42}
	r := NewReader(src)
	got := r.BorrowRaw(4)
	if &got[0] != &src[0] || len(got) != 4 || cap(got) != 4 {
		t.Fatalf("BorrowRaw = %v (cap %d), want a 4-byte window at src[0:4]", got, cap(got))
	}
	_ = append(got, 0x99)
	if v := r.Byte(); v != 0x42 {
		t.Errorf("append to a borrowed field overwrote the next one: %#x", v)
	}
	r = NewReader(src)
	if cp := r.Raw(4); &cp[0] == &src[0] || !bytes.Equal(cp, src[:4]) {
		t.Errorf("Raw = %v, want a copy of src[0:4]", cp)
	}
	if v := r.BorrowRaw(2); v != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("2 bytes of 1: %v, err %v, want nil and ErrTruncated", v, r.Err())
	}
}
