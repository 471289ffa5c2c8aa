//go:build flick_portable || !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package rt

import "encoding/binary"

// The portable move kernels: one encoding/binary call per element,
// correct on any host byte order. Big-endian hosts build these; the
// flick_portable tag forces them everywhere, which is how the tests
// hold them against the word-wide kernels of bulk_fast.go.

// move16 carries len(src)/2 16-bit elements between host order and
// the wire order named by big. len(dst) == len(src).
func move16(dst, src []byte, big bool) {
	for i := 0; i+2 <= len(src); i += 2 {
		v := binary.NativeEndian.Uint16(src[i:])
		if big {
			binary.BigEndian.PutUint16(dst[i:], v)
		} else {
			binary.LittleEndian.PutUint16(dst[i:], v)
		}
	}
}

// move32 is move16 for 32-bit elements.
func move32(dst, src []byte, big bool) {
	for i := 0; i+4 <= len(src); i += 4 {
		v := binary.NativeEndian.Uint32(src[i:])
		if big {
			binary.BigEndian.PutUint32(dst[i:], v)
		} else {
			binary.LittleEndian.PutUint32(dst[i:], v)
		}
	}
}

// move64 is move16 for 64-bit elements.
func move64(dst, src []byte, big bool) {
	for i := 0; i+8 <= len(src); i += 8 {
		v := binary.NativeEndian.Uint64(src[i:])
		if big {
			binary.BigEndian.PutUint64(dst[i:], v)
		} else {
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
	}
}
