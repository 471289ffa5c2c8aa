package rt

import (
	"encoding/binary"
	"unsafe"
)

// Bulk transfer helpers: the runtime half of Flick's memcpy optimization.
// For byte-width elements the generated code uses copy directly. Wider
// elements go through move16/move32/move64, which carry a whole array
// between its in-memory bytes and its wire bytes with the bounds checked
// once: word-wide on little-endian hosts (bulk_fast.go — a plain copy
// when the wire order is the host's, 64-bit load/byte-reverse/store when
// it is not), one encoding/binary call per element everywhere else
// (bulk_portable.go). Host-to-wire and wire-to-host are the same byte
// permutation, so Put and Get share the kernels.
//
// Every Put needs len(b) ≥ elemsize*len(s) and every Get
// len(b) ≥ elemsize*len(dst); a short window panics like any
// out-of-range slice expression.

// hostBytes views the backing store of s as bytes. The view is only
// ever passed straight to a move kernel or copy: it never outlives the
// call that made it.
func hostBytes[T any](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

// PutSlice16BE writes each element big-endian into b.
func PutSlice16BE[T ~int16 | ~uint16](b []byte, s []T) {
	h := hostBytes(s)
	move16(b[:len(h)], h, true)
}

// GetSlice16BE fills dst from big-endian wire bytes.
func GetSlice16BE[T ~int16 | ~uint16](dst []T, b []byte) {
	h := hostBytes(dst)
	move16(h, b[:len(h)], true)
}

// PutSlice16LE writes each element little-endian into b.
func PutSlice16LE[T ~int16 | ~uint16](b []byte, s []T) {
	h := hostBytes(s)
	move16(b[:len(h)], h, false)
}

// GetSlice16LE fills dst from little-endian wire bytes.
func GetSlice16LE[T ~int16 | ~uint16](dst []T, b []byte) {
	h := hostBytes(dst)
	move16(h, b[:len(h)], false)
}

// PutSlice32BE writes each element big-endian into b.
func PutSlice32BE[T ~int32 | ~uint32](b []byte, s []T) {
	h := hostBytes(s)
	move32(b[:len(h)], h, true)
}

// GetSlice32BE fills dst from big-endian wire bytes.
func GetSlice32BE[T ~int32 | ~uint32](dst []T, b []byte) {
	h := hostBytes(dst)
	move32(h, b[:len(h)], true)
}

// PutSlice32LE writes each element little-endian into b.
func PutSlice32LE[T ~int32 | ~uint32](b []byte, s []T) {
	h := hostBytes(s)
	move32(b[:len(h)], h, false)
}

// GetSlice32LE fills dst from little-endian wire bytes.
func GetSlice32LE[T ~int32 | ~uint32](dst []T, b []byte) {
	h := hostBytes(dst)
	move32(h, b[:len(h)], false)
}

// PutSlice64BE writes each element big-endian into b.
func PutSlice64BE[T ~int64 | ~uint64](b []byte, s []T) {
	h := hostBytes(s)
	move64(b[:len(h)], h, true)
}

// GetSlice64BE fills dst from big-endian wire bytes.
func GetSlice64BE[T ~int64 | ~uint64](dst []T, b []byte) {
	h := hostBytes(dst)
	move64(h, b[:len(h)], true)
}

// PutSlice64LE writes each element little-endian into b.
func PutSlice64LE[T ~int64 | ~uint64](b []byte, s []T) {
	h := hostBytes(s)
	move64(b[:len(h)], h, false)
}

// GetSlice64LE fills dst from little-endian wire bytes.
func GetSlice64LE[T ~int64 | ~uint64](dst []T, b []byte) {
	h := hostBytes(dst)
	move64(h, b[:len(h)], false)
}

// PutSliceF32BE writes float32 elements big-endian (IEEE 754 bit patterns).
func PutSliceF32BE(b []byte, s []float32) {
	h := hostBytes(s)
	move32(b[:len(h)], h, true)
}

// GetSliceF32BE fills dst from big-endian float32 wire bytes.
func GetSliceF32BE(dst []float32, b []byte) {
	h := hostBytes(dst)
	move32(h, b[:len(h)], true)
}

// PutSliceF32LE writes float32 elements little-endian (IEEE 754 bit patterns).
func PutSliceF32LE(b []byte, s []float32) {
	h := hostBytes(s)
	move32(b[:len(h)], h, false)
}

// GetSliceF32LE fills dst from little-endian float32 wire bytes.
func GetSliceF32LE(dst []float32, b []byte) {
	h := hostBytes(dst)
	move32(h, b[:len(h)], false)
}

// PutSliceF64BE writes float64 elements big-endian (IEEE 754 bit patterns).
func PutSliceF64BE(b []byte, s []float64) {
	h := hostBytes(s)
	move64(b[:len(h)], h, true)
}

// GetSliceF64BE fills dst from big-endian float64 wire bytes.
func GetSliceF64BE(dst []float64, b []byte) {
	h := hostBytes(dst)
	move64(h, b[:len(h)], true)
}

// PutSliceF64LE writes float64 elements little-endian (IEEE 754 bit patterns).
func PutSliceF64LE(b []byte, s []float64) {
	h := hostBytes(s)
	move64(b[:len(h)], h, false)
}

// GetSliceF64LE fills dst from little-endian float64 wire bytes.
func GetSliceF64LE(dst []float64, b []byte) {
	h := hostBytes(dst)
	move64(h, b[:len(h)], false)
}

// PutSlice8 writes 1-byte integer elements.
func PutSlice8[T ~int8 | ~uint8](b []byte, s []T) {
	for i, v := range s {
		b[i] = byte(v)
	}
}

// PutSliceBool writes booleans at the given wire width (4 for XDR, 1 for
// CDR).
func PutSliceBool(b []byte, s []bool, wireWidth int, order ByteOrder) {
	for i, v := range s {
		switch wireWidth {
		case 1:
			b[i] = B2U8(v)
		default:
			if order == BE {
				binary.BigEndian.PutUint32(b[4*i:], B2U32(v))
			} else {
				binary.LittleEndian.PutUint32(b[4*i:], B2U32(v))
			}
		}
	}
}

// GetSlice8 fills 1-byte integer elements.
func GetSlice8[T ~int8 | ~uint8](dst []T, b []byte) {
	for i := range dst {
		dst[i] = T(b[i])
	}
}

func GetSliceBool(dst []bool, b []byte, wireWidth int, order ByteOrder) {
	for i := range dst {
		switch wireWidth {
		case 1:
			dst[i] = b[i] != 0
		default:
			if order == BE {
				dst[i] = binary.BigEndian.Uint32(b[4*i:]) != 0
			} else {
				dst[i] = binary.LittleEndian.Uint32(b[4*i:]) != 0
			}
		}
	}
}
