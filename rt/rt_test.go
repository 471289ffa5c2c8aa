package rt

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEncoderGrowAndWrite(t *testing.T) {
	var e Encoder
	e.Grow(4)
	e.PutU32BE(0xDEADBEEF)
	e.Grow(2)
	e.PutU16LE(0x0102)
	e.Grow(1)
	e.PutU8(7)
	want := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x02, 0x01, 7}
	if !bytes.Equal(e.Bytes(), want) {
		t.Errorf("bytes = %x, want %x", e.Bytes(), want)
	}
	if e.Len() != 7 {
		t.Errorf("len = %d", e.Len())
	}
	e.Reset()
	if e.Len() != 0 {
		t.Error("reset did not empty")
	}
}

func TestEncoderAlign(t *testing.T) {
	var e Encoder
	e.Grow(16)
	e.PutU8(1)
	e.Align(4)
	if e.Len() != 4 {
		t.Errorf("len after align = %d", e.Len())
	}
	e.Align(4) // already aligned: no-op
	if e.Len() != 4 {
		t.Errorf("len after second align = %d", e.Len())
	}
	if !bytes.Equal(e.Bytes(), []byte{1, 0, 0, 0}) {
		t.Errorf("padding bytes = %x", e.Bytes())
	}
}

func TestEncoderGrowthPreservesData(t *testing.T) {
	var e Encoder
	for i := 0; i < 1000; i++ {
		e.Grow(4)
		e.PutU32BE(uint32(i))
	}
	for i := 0; i < 1000; i++ {
		d := NewDecoder(e.Bytes()[4*i:])
		if !d.Ensure(4) {
			t.Fatal("short")
		}
		if got := d.U32BE(); got != uint32(i) {
			t.Fatalf("slot %d = %d", i, got)
		}
	}
}

func TestDecoderBasics(t *testing.T) {
	var e Encoder
	e.Grow(32)
	e.PutU8(9)
	e.PutU16BE(0x1234)
	e.PutU32LE(0x89ABCDEF)
	e.PutU64BE(0x1122334455667788)
	d := NewDecoder(e.Bytes())
	if !d.Ensure(15) {
		t.Fatal(d.Err())
	}
	if d.U8() != 9 || d.U16BE() != 0x1234 || d.U32LE() != 0x89ABCDEF || d.U64BE() != 0x1122334455667788 {
		t.Error("round trip mismatch")
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if d.Ensure(4) {
		t.Fatal("ensure should fail")
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("err = %v", d.Err())
	}
	// Error sticks even if a later check would pass.
	if d.Ensure(1) {
		t.Log("Ensure(1) may pass structurally, but Err must persist")
	}
	if d.Err() == nil {
		t.Error("sticky error lost")
	}
}

func TestDecoderCheckedReads(t *testing.T) {
	d := NewDecoder([]byte{0xAA})
	if got := d.U8C(); got != 0xAA {
		t.Errorf("U8C = %x", got)
	}
	if got := d.U32BEC(); got != 0 || d.Err() == nil {
		t.Errorf("U32BEC on empty = %x, err=%v", got, d.Err())
	}
}

func TestDecoderLen(t *testing.T) {
	var e Encoder
	e.Grow(8)
	e.PutU32BE(3)
	e.PutBytes([]byte{1, 2, 3})
	d := NewDecoder(e.Bytes())
	d.Ensure(4)
	n, ok := d.Len(BE, 10, false, 1)
	if !ok || n != 3 {
		t.Errorf("Len = %d,%v", n, ok)
	}

	// Over bound.
	d = NewDecoder(e.Bytes())
	d.Ensure(4)
	if _, ok := d.Len(BE, 2, false, 1); ok {
		t.Error("bound 2 should reject 3")
	}

	// Count exceeding remaining payload.
	var e2 Encoder
	e2.Grow(4)
	e2.PutU32BE(1 << 30)
	d = NewDecoder(e2.Bytes())
	d.Ensure(4)
	if _, ok := d.Len(BE, 0, false, 1); ok {
		t.Error("hostile count accepted")
	}

	// NUL-counted (CDR): length includes the terminator.
	var e3 Encoder
	e3.Grow(8)
	e3.PutU32LE(3)
	e3.PutBytes([]byte{'h', 'i', 0})
	d = NewDecoder(e3.Bytes())
	d.Ensure(4)
	n, ok = d.Len(LE, 0, true, 1)
	if !ok || n != 2 {
		t.Errorf("nul Len = %d,%v", n, ok)
	}
	// Zero-length NUL-counted strings are malformed.
	var e4 Encoder
	e4.Grow(4)
	e4.PutU32LE(0)
	d = NewDecoder(e4.Bytes())
	d.Ensure(4)
	if _, ok := d.Len(LE, 0, true, 1); ok {
		t.Error("zero NUL-counted length accepted")
	}
}

func TestCheckBound(t *testing.T) {
	CheckBound(5, 10)
	CheckBound(5, 0) // unbounded
	defer func() {
		if recover() == nil {
			t.Error("CheckBound(11,10) should panic")
		}
	}()
	CheckBound(11, 10)
}

func TestBulkRoundTrip(t *testing.T) {
	s32 := []int32{-1, 0, 1 << 30, -1 << 31}
	b := make([]byte, 4*len(s32))
	PutSlice32BE(b, s32)
	out := make([]int32, len(s32))
	GetSlice32BE(out, b)
	for i := range s32 {
		if s32[i] != out[i] {
			t.Errorf("BE slot %d: %d != %d", i, out[i], s32[i])
		}
	}
	PutSlice32LE(b, s32)
	GetSlice32LE(out, b)
	for i := range s32 {
		if s32[i] != out[i] {
			t.Errorf("LE slot %d: %d != %d", i, out[i], s32[i])
		}
	}

	s16 := []uint16{0, 0xFFFF, 0x1234}
	b16 := make([]byte, 2*len(s16))
	PutSlice16BE(b16, s16)
	o16 := make([]uint16, len(s16))
	GetSlice16BE(o16, b16)
	if o16[1] != 0xFFFF || o16[2] != 0x1234 {
		t.Error("u16 round trip")
	}

	s64 := []uint64{0, ^uint64(0), 42}
	b64 := make([]byte, 8*len(s64))
	PutSlice64LE(b64, s64)
	o64 := make([]uint64, len(s64))
	GetSlice64LE(o64, b64)
	if o64[1] != ^uint64(0) {
		t.Error("u64 round trip")
	}

	f32 := []float32{0, 1.5, float32(math.Inf(1)), -2.25}
	bf := make([]byte, 4*len(f32))
	PutSliceF32BE(bf, f32)
	of := make([]float32, len(f32))
	GetSliceF32BE(of, bf)
	for i := range f32 {
		if f32[i] != of[i] {
			t.Errorf("f32 slot %d", i)
		}
	}

	f64 := []float64{math.Pi, -0.0, math.MaxFloat64}
	bd := make([]byte, 8*len(f64))
	PutSliceF64LE(bd, f64)
	od := make([]float64, len(f64))
	GetSliceF64LE(od, bd)
	for i := range f64 {
		if f64[i] != od[i] {
			t.Errorf("f64 slot %d", i)
		}
	}

	bools := []bool{true, false, true}
	bb := make([]byte, 4*len(bools))
	PutSliceBool(bb, bools, 4, BE)
	ob := make([]bool, len(bools))
	GetSliceBool(ob, bb, 4, BE)
	for i := range bools {
		if bools[i] != ob[i] {
			t.Errorf("bool4 slot %d", i)
		}
	}
	bb1 := make([]byte, len(bools))
	PutSliceBool(bb1, bools, 1, LE)
	GetSliceBool(ob, bb1, 1, LE)
	for i := range bools {
		if bools[i] != ob[i] {
			t.Errorf("bool1 slot %d", i)
		}
	}

	i8 := []int8{-1, 0, 127, -128}
	b8 := make([]byte, len(i8))
	PutSlice8(b8, i8)
	o8 := make([]int8, len(i8))
	GetSlice8(o8, b8)
	for i := range i8 {
		if i8[i] != o8[i] {
			t.Errorf("i8 slot %d", i)
		}
	}
}

func TestBulkQuick(t *testing.T) {
	f := func(s []int32) bool {
		b := make([]byte, 4*len(s))
		PutSlice32BE(b, s)
		out := make([]int32, len(s))
		GetSlice32BE(out, b)
		for i := range s {
			if s[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWord4(t *testing.T) {
	tests := []struct {
		s    string
		off  int
		want uint32
	}{
		{"send", 0, 0x73656e64},
		{"send_ints", 4, 0x5f696e74},
		{"send_ints", 8, 0x73000000},
		{"ab", 0, 0x61620000},
		{"", 0, 0},
		{"abcd", 4, 0},
	}
	for _, tt := range tests {
		if got := Word4(tt.s, tt.off); got != tt.want {
			t.Errorf("Word4(%q,%d) = %08x, want %08x", tt.s, tt.off, got, tt.want)
		}
	}
}

func TestB2Conversions(t *testing.T) {
	if B2U32(true) != 1 || B2U32(false) != 0 || B2U8(true) != 1 || B2U8(false) != 0 {
		t.Error("bool conversions wrong")
	}
}
