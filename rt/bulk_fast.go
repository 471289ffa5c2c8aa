//go:build !flick_portable && (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package rt

import (
	"encoding/binary"
	"math/bits"
)

// The word-wide move kernels for little-endian hosts (the constraint
// above lists them; anything else, or -tags flick_portable, builds
// bulk_portable.go instead). A little-endian wire order is the host's
// own, so the transfer is one copy — the paper's memcpy for
// byte-identical arrays. A big-endian one is byte-reversed eight bytes
// at a time: a 64-bit load, a reversal within each element lane, a
// 64-bit store; the encoding/binary calls below compile to single
// unaligned moves here.

// move16 carries len(src)/2 16-bit elements between host order and
// the wire order named by big. len(dst) == len(src).
func move16(dst, src []byte, big bool) {
	if !big {
		copy(dst, src)
		return
	}
	const lo = 0x00FF00FF00FF00FF
	dst = dst[:len(src)]
	for len(src) >= 8 && len(dst) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst, x&lo<<8|x>>8&lo)
		src, dst = src[8:], dst[8:]
	}
	for len(src) >= 2 && len(dst) >= 2 {
		dst[0], dst[1] = src[1], src[0]
		src, dst = src[2:], dst[2:]
	}
}

// move32 is move16 for 32-bit elements: reversing all eight bytes also
// exchanges the two elements, and the half-rotate puts them back.
func move32(dst, src []byte, big bool) {
	if !big {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for len(src) >= 16 && len(dst) >= 16 {
		x := binary.LittleEndian.Uint64(src)
		y := binary.LittleEndian.Uint64(src[8:])
		binary.LittleEndian.PutUint64(dst, bits.RotateLeft64(bits.ReverseBytes64(x), 32))
		binary.LittleEndian.PutUint64(dst[8:], bits.RotateLeft64(bits.ReverseBytes64(y), 32))
		src, dst = src[16:], dst[16:]
	}
	for len(src) >= 4 && len(dst) >= 4 {
		binary.LittleEndian.PutUint32(dst, bits.ReverseBytes32(binary.LittleEndian.Uint32(src)))
		src, dst = src[4:], dst[4:]
	}
}

// move64 is move16 for 64-bit elements.
func move64(dst, src []byte, big bool) {
	if !big {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for len(src) >= 8 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, bits.ReverseBytes64(binary.LittleEndian.Uint64(src)))
		src, dst = src[8:], dst[8:]
	}
}
