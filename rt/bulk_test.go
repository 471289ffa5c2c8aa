package rt

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// bulkCase runs one Put/Get pair of width esz against a per-element
// encoding/binary reference, writing into and reading from buf at off.
type bulkCase struct {
	name string
	esz  int
	ord  binary.ByteOrder
	// put marshals elements 0..n-1 of the pattern into w; get decodes n
	// elements from w and returns them re-encoded through ord, so one
	// comparison against the reference bytes checks both directions.
	put func(w []byte, n int)
	get func(w []byte, n int) []byte
}

// lanePattern gives every byte of element i a distinct value, so a kernel
// that swaps within the wrong lane, or exchanges neighbours, shows.
func lanePattern(i, esz int) uint64 {
	var v uint64
	for k := 0; k < esz; k++ {
		v = v<<8 | uint64(byte(i*8+k+1))
	}
	return v
}

func intCase[T ~int16 | ~uint16 | ~int32 | ~uint32 | ~int64 | ~uint64](name string, esz int, ord binary.ByteOrder,
	put func([]byte, []T), get func([]T, []byte)) bulkCase {
	enc := func(s []T) []byte {
		out := make([]byte, esz*len(s))
		for i, v := range s {
			switch esz {
			case 2:
				ord.PutUint16(out[2*i:], uint16(v))
			case 4:
				ord.PutUint32(out[4*i:], uint32(v))
			default:
				ord.PutUint64(out[8*i:], uint64(v))
			}
		}
		return out
	}
	return bulkCase{name, esz, ord,
		func(w []byte, n int) {
			s := make([]T, n)
			for i := range s {
				s[i] = T(lanePattern(i, esz))
			}
			put(w, s)
		},
		func(w []byte, n int) []byte {
			s := make([]T, n)
			get(s, w)
			return enc(s)
		}}
}

func bulkCases() []bulkCase {
	be, le := binary.ByteOrder(binary.BigEndian), binary.ByteOrder(binary.LittleEndian)
	f32 := func(name string, ord binary.ByteOrder, put func([]byte, []float32), get func([]float32, []byte)) bulkCase {
		return intCase(name, 4, ord,
			func(w []byte, s []uint32) {
				f := make([]float32, len(s))
				for i, v := range s {
					f[i] = math.Float32frombits(v)
				}
				put(w, f)
			},
			func(s []uint32, w []byte) {
				f := make([]float32, len(s))
				get(f, w)
				for i, v := range f {
					s[i] = math.Float32bits(v)
				}
			})
	}
	f64 := func(name string, ord binary.ByteOrder, put func([]byte, []float64), get func([]float64, []byte)) bulkCase {
		return intCase(name, 8, ord,
			func(w []byte, s []uint64) {
				f := make([]float64, len(s))
				for i, v := range s {
					f[i] = math.Float64frombits(v)
				}
				put(w, f)
			},
			func(s []uint64, w []byte) {
				f := make([]float64, len(s))
				get(f, w)
				for i, v := range f {
					s[i] = math.Float64bits(v)
				}
			})
	}
	return []bulkCase{
		intCase("16BE", 2, be, PutSlice16BE[uint16], GetSlice16BE[uint16]),
		intCase("16LE", 2, le, PutSlice16LE[int16], GetSlice16LE[int16]),
		intCase("32BE", 4, be, PutSlice32BE[int32], GetSlice32BE[int32]),
		intCase("32LE", 4, le, PutSlice32LE[uint32], GetSlice32LE[uint32]),
		intCase("64BE", 8, be, PutSlice64BE[uint64], GetSlice64BE[uint64]),
		intCase("64LE", 8, le, PutSlice64LE[int64], GetSlice64LE[int64]),
		f32("F32BE", be, PutSliceF32BE, GetSliceF32BE),
		f32("F32LE", le, PutSliceF32LE, GetSliceF32LE),
		f64("F64BE", be, PutSliceF64BE, GetSliceF64BE),
		f64("F64LE", le, PutSliceF64LE, GetSliceF64LE),
	}
}

// TestBulkKernelsMatchEncodingBinary holds every Put/GetSlice* against a
// per-element encoding/binary reference for lengths 0-67 (every tail
// length of the word-wide loops, several times over) at byte offsets
// 0-3 into the buffer (the kernels must not assume alignment), and
// checks that nothing outside the window is written. `make ci` runs it
// twice: once per build of the kernels (see bulk_portable.go).
func TestBulkKernelsMatchEncodingBinary(t *testing.T) {
	const guard = 0xA5
	for _, tc := range bulkCases() {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				want := make([]byte, tc.esz*n)
				for i := 0; i < n; i++ {
					switch tc.esz {
					case 2:
						tc.ord.PutUint16(want[2*i:], uint16(lanePattern(i, 2)))
					case 4:
						tc.ord.PutUint32(want[4*i:], uint32(lanePattern(i, 4)))
					default:
						tc.ord.PutUint64(want[8*i:], lanePattern(i, 8))
					}
				}
				buf := bytes.Repeat([]byte{guard}, off+len(want)+9)
				w := buf[off : off+len(want)]
				tc.put(w, n)
				if !bytes.Equal(w, want) {
					t.Fatalf("%s put n=%d off=%d:\n got %x\nwant %x", tc.name, n, off, w, want)
				}
				for i, b := range buf {
					if (i < off || i >= off+len(want)) && b != guard {
						t.Fatalf("%s put n=%d off=%d wrote outside its window at %d", tc.name, n, off, i)
					}
				}
				// A window longer than needed is legal; only the
				// leading esz*n bytes may be read.
				if got := tc.get(buf[off:], n); !bytes.Equal(got, want) {
					t.Fatalf("%s get n=%d off=%d:\n got %x\nwant %x", tc.name, n, off, got, want)
				}
			}
		}
	}
}

// TestBulkShortWindowPanics pins the contract the per-element loops had:
// a wire window shorter than the array panics, it is never silently
// truncated.
func TestBulkShortWindowPanics(t *testing.T) {
	short := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: short window did not panic", name)
			}
		}()
		f()
	}
	s := make([]int32, 5)
	short("PutSlice32BE", func() { PutSlice32BE(make([]byte, 19), s) })
	short("PutSlice32LE", func() { PutSlice32LE(make([]byte, 19), s) })
	short("GetSlice32BE", func() { GetSlice32BE(s, make([]byte, 19)) })
	short("GetSlice32LE", func() { GetSlice32LE(s, make([]byte, 19)) })
	short("GetSlice16BE", func() { GetSlice16BE(make([]uint16, 5), make([]byte, 9)) })
	short("PutSliceF64BE", func() { PutSliceF64BE(make([]byte, 39), make([]float64, 5)) })
}

var bulkSink byte

func BenchmarkBulk(b *testing.B) {
	for _, n := range []int{30, 16384} {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(i * 2654435761)
		}
		w := make([]byte, 4*n)
		run := func(name string, f func()) {
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(4 * n))
				for i := 0; i < b.N; i++ {
					f()
				}
				bulkSink += w[0] + byte(s[0])
			})
		}
		suffix := "x30"
		if n != 30 {
			suffix = "x16k"
		}
		run("Put32BE"+suffix, func() { PutSlice32BE(w, s) })
		run("Get32BE"+suffix, func() { GetSlice32BE(s, w) })
		run("Put32LE"+suffix, func() { PutSlice32LE(w, s) })
		run("Get32LE"+suffix, func() { GetSlice32LE(s, w) })
	}
}
