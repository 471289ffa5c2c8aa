// Benchmarks regenerating the paper's evaluation, one family per table
// or figure. Run: go test -bench=. -benchmem
//
//	BenchmarkFig3_*      marshal throughput per compiler and workload
//	BenchmarkFig4to6_*   end-to-end stub cost (combine with netsim links)
//	BenchmarkFig7_*      MIG vs Flick over Mach messages
//	BenchmarkTable2_*    stub generation (code-size experiment inputs)
//	BenchmarkAblation_*  §3 optimizations individually disabled
//
// The flick-bench command renders the same measurements as the paper's
// tables; these benchmarks expose them to standard Go tooling.
package flick_test

import (
	"testing"

	"flick"
	abl "flick/internal/ablstubs"
	"flick/internal/experiment"
	ts "flick/internal/teststubs"
	"flick/rt"
)

// --- Figure 3: marshal throughput -------------------------------------------

func benchMarshalInts(b *testing.B, size int, f func(*rt.Encoder, []int32)) {
	v := experiment.IntArray(size)
	var e rt.Encoder
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		f(&e, v)
	}
}

func benchMarshalRects(b *testing.B, size int, f func(*rt.Encoder, []ts.BenchRect)) {
	v := experiment.RectArray(size)
	var e rt.Encoder
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		f(&e, v)
	}
}

func benchMarshalDirs(b *testing.B, size int, f func(*rt.Encoder, []ts.BenchDirEntry)) {
	v := experiment.DirArray(size)
	var e rt.Encoder
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		f(&e, v)
	}
}

func fig3Compilers(b *testing.B, run func(b *testing.B, c *experiment.Compiler)) {
	compilers := experiment.Compilers()
	for i := range compilers {
		c := &compilers[i]
		b.Run(c.Name, func(b *testing.B) { run(b, c) })
	}
}

func BenchmarkFig3_Ints_1K(b *testing.B) {
	fig3Compilers(b, func(b *testing.B, c *experiment.Compiler) {
		benchMarshalInts(b, 1<<10, c.MarshalInts)
	})
}

func BenchmarkFig3_Ints_64K(b *testing.B) {
	fig3Compilers(b, func(b *testing.B, c *experiment.Compiler) {
		benchMarshalInts(b, 64<<10, c.MarshalInts)
	})
}

func BenchmarkFig3_Ints_1M(b *testing.B) {
	fig3Compilers(b, func(b *testing.B, c *experiment.Compiler) {
		benchMarshalInts(b, 1<<20, c.MarshalInts)
	})
}

func BenchmarkFig3_Rects_64K(b *testing.B) {
	fig3Compilers(b, func(b *testing.B, c *experiment.Compiler) {
		benchMarshalRects(b, 64<<10, c.MarshalRects)
	})
}

func BenchmarkFig3_Dirs_64K(b *testing.B) {
	fig3Compilers(b, func(b *testing.B, c *experiment.Compiler) {
		benchMarshalDirs(b, 64<<10, c.MarshalDirs)
	})
}

func BenchmarkFig3_Unmarshal_Dirs_64K(b *testing.B) {
	compilers := experiment.Compilers()
	for i := range compilers {
		c := &compilers[i]
		b.Run(c.Name, func(b *testing.B) {
			v := experiment.DirArray(64 << 10)
			var e rt.Encoder
			c.MarshalDirs(&e, v)
			payload := e.Bytes()
			d := rt.NewDecoder(payload)
			b.SetBytes(64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Reset(payload)
				if _, err := c.UnmarshalDirs(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figures 4-6: end-to-end stub path (marshal + unmarshal round trip) ------

func BenchmarkFig4to6_RoundTripStubCost(b *testing.B) {
	compilers := experiment.Compilers()
	for i := range compilers {
		c := &compilers[i]
		switch c.Name {
		case "rpcgen", "PowerRPC", "Flick/ONC":
		default:
			continue
		}
		b.Run(c.Name, func(b *testing.B) {
			v := experiment.IntArray(64 << 10)
			var e rt.Encoder
			b.SetBytes(64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset()
				c.MarshalInts(&e, v)
				d := rt.NewDecoder(e.Bytes())
				if _, err := c.UnmarshalInts(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: MIG vs Flick over Mach messages --------------------------------

func BenchmarkFig7_MIG_Ints_64K(b *testing.B) {
	v := experiment.IntArray(64 << 10)
	mig := &experiment.MIGStub{}
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		msg := mig.MarshalInts(v)
		if _, err := mig.UnmarshalInts(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_FlickMach_Ints_64K(b *testing.B) {
	v := experiment.IntArray(64 << 10)
	var e rt.Encoder
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		e.Reset()
		h := rt.ReqHeader{XID: 1}
		rt.Mach{}.WriteRequest(&e, &h)
		ts.MarshalBenchSendIntsMachRequest(&e, v)
		d := rt.NewDecoder(e.Bytes())
		if _, err := (rt.Mach{}).ReadRequest(d); err != nil {
			b.Fatal(err)
		}
		if _, err := ts.UnmarshalBenchSendIntsMachRequest(d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: compilation itself (code-size experiment inputs) ---------------

func BenchmarkTable2_CompileDirectoryInterface(b *testing.B) {
	for _, style := range []string{"flick", "rpcgen", "powerrpc"} {
		b.Run(style, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := flick.Compile("bench.idl", ts.BenchIDL, flick.Options{
					IDL: "corba", Lang: "go", Format: "xdr", Style: style,
					Package: "bench", SkipDecls: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Section 3 ablations -------------------------------------------------------

func ablDirs(size int) []abl.BenchDirEntry {
	src := experiment.DirArray(size)
	v := make([]abl.BenchDirEntry, len(src))
	for i := range src {
		v[i].Name = src[i].Name
		v[i].Info.Fields = src[i].Info.Fields
		v[i].Info.Tag = src[i].Info.Tag
	}
	return v
}

func ablRects(size int) []abl.BenchRect {
	src := experiment.RectArray(size)
	v := make([]abl.BenchRect, len(src))
	for i := range src {
		v[i] = abl.BenchRect{
			Min: abl.BenchPoint{X: src[i].Min.X, Y: src[i].Min.Y},
			Max: abl.BenchPoint{X: src[i].Max.X, Y: src[i].Max.Y},
		}
	}
	return v
}

func BenchmarkAblation_Dirs_64K(b *testing.B) {
	v := ablDirs(64 << 10)
	for _, cfg := range []struct {
		name string
		f    func(*rt.Encoder, []abl.BenchDirEntry)
	}{
		{"full", abl.MarshalBenchSendDirsFullRequest},
		{"no-group", abl.MarshalBenchSendDirsNoGroupRequest},
		{"no-chunk", abl.MarshalBenchSendDirsNoChunkRequest},
		{"no-memcpy", abl.MarshalBenchSendDirsNoMemcpyRequest},
		{"no-inline", abl.MarshalBenchSendDirsNoInlineRequest},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var e rt.Encoder
			b.SetBytes(64 << 10)
			for i := 0; i < b.N; i++ {
				e.Reset()
				cfg.f(&e, v)
			}
		})
	}
}

func BenchmarkAblation_Rects_64K(b *testing.B) {
	v := ablRects(64 << 10)
	for _, cfg := range []struct {
		name string
		f    func(*rt.Encoder, []abl.BenchRect)
	}{
		{"full", abl.MarshalBenchSendRectsFullRequest},
		{"no-group", abl.MarshalBenchSendRectsNoGroupRequest},
		{"no-chunk", abl.MarshalBenchSendRectsNoChunkRequest},
		{"no-memcpy", abl.MarshalBenchSendRectsNoMemcpyRequest},
		{"no-inline", abl.MarshalBenchSendRectsNoInlineRequest},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var e rt.Encoder
			b.SetBytes(64 << 10)
			for i := 0; i < b.N; i++ {
				e.Reset()
				cfg.f(&e, v)
			}
		})
	}
}

// BenchmarkAblation_Params_Sum16 is parameter management on small data:
// the server-side decode of a 16-integer Sum request. "full" is the
// skeleton's cycle under //flick:borrow — decode into lent storage, end
// the borrow, reset for the next request. "no-params" decodes the same
// message with send_ints' stub, which the directive does not mark: the
// make([]int32, n) that -disable params emits for sum as well.
func BenchmarkAblation_Params_Sum16(b *testing.B) {
	var e rt.Encoder
	ts.MarshalBenchSumXDRRequest(&e, experiment.IntArray(64))
	msg := e.Bytes()
	for _, cfg := range []struct {
		name string
		f    func(*rt.Decoder) ([]int32, error)
		end  bool
	}{
		{"full", ts.UnmarshalBenchSumXDRRequest, true},
		{"no-params", ts.UnmarshalBenchSendIntsXDRRequest, false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			d := rt.NewDecoder(msg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Reset(msg)
				if _, err := cfg.f(d); err != nil {
					b.Fatal(err)
				}
				if cfg.end {
					d.EndBorrow()
				}
			}
		})
	}
}
