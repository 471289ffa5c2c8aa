package rt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestAlignMaskMatchesModulo holds the mask-based Align of both cursors
// against the modulo form it replaced, for every alignment a wire format
// uses and every cursor residue.
func TestAlignMaskMatchesModulo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for pos := 0; pos < 24; pos++ {
			want := pos + (n-pos%n)%n
			d := NewDecoder(make([]byte, 64))
			d.Next(pos)
			if d.Align(n); d.Pos() != want || d.Err() != nil {
				t.Errorf("Decoder at %d Align(%d) = %d (err %v), want %d", pos, n, d.Pos(), d.Err(), want)
			}
			var e Encoder
			e.Grow(pos)
			e.Next(pos)
			if e.Align(n); e.Len() != want {
				t.Errorf("Encoder at %d Align(%d) = %d, want %d", pos, n, e.Len(), want)
			}
		}
	}
	d := NewDecoder(make([]byte, 5))
	d.Next(5)
	if d.Align(4); !errors.Is(d.Err(), ErrTruncated) || d.Pos() != 5 {
		t.Errorf("Align past the end: pos %d err %v, want 5 and ErrTruncated", d.Pos(), d.Err())
	}
}

func TestSlabCarving(t *testing.T) {
	msg := []byte("....alphabetagamma")
	d := NewDecoder(msg)
	d.Next(4)
	// 14 bytes unread, 1 of them declared not to be string data.
	d.Slab(1)
	if got := cap(d.slab); got != 13 {
		t.Fatalf("Slab(1) with 14 unread bytes provisioned %d, want 13", got)
	}
	slab := d.slab[:cap(d.slab)]
	a, b := d.NextString(5), d.NextString(4)
	if a != "alpha" || b != "beta" {
		t.Fatalf("NextString = %q, %q", a, b)
	}
	if string(slab[:9]) != "alphabeta" {
		t.Fatalf("strings were not carved from the slab: slab holds %q", slab[:9])
	}
	// A byte window is capped at its own length: appending to it must
	// reallocate, not run into the next carve.
	w := d.SlabBytes(2)
	if len(w) != 2 || cap(w) != 2 || &w[0] != &slab[9] {
		t.Fatalf("SlabBytes(2): len %d cap %d, in slab: %v", len(w), cap(w), &w[0] == &slab[9])
	}
	copy(w, "zz")
	next := d.SlabBytes(2)
	copy(next, "yy")
	w = append(w, 'X')
	if string(next) != "yy" {
		t.Fatalf("append to one window overwrote the next: %q", next)
	}
	// What does not fit falls back to its own allocation, and the slab
	// keeps what is left for the next value that does.
	if got := d.NextString(5); got != "gamma" {
		t.Fatalf("fallback NextString = %q", got)
	}
	if len(d.slab) != 13 {
		t.Fatalf("slab accounting after carves: len %d, want 13", len(d.slab))
	}
	// Empty values never touch the slab.
	if d.NextString(0) != "" || len(d.SlabBytes(0)) != 0 {
		t.Fatal("empty carves")
	}
	// A message too short for its own fixed part provisions nothing.
	d2 := NewDecoder(msg)
	d2.Slab(len(msg) + 1)
	if d2.slab != nil {
		t.Fatalf("Slab beyond the message provisioned %d bytes", cap(d2.slab))
	}
	if d2.NextString(4) != "...." {
		t.Fatal("NextString without a slab")
	}
	// Reset drops the reference.
	d.Reset(msg)
	if d.slab != nil {
		t.Fatal("Reset kept the slab")
	}
}

// TestSlabStringOnlyAliasesItsLastWindow pins the one unsafe.String: only
// the slab's most recent window converts in place; anything else is
// copied, so no caller can end up with a string over memory it can still
// write through a slice the decoder did not just hand out.
func TestSlabStringOnlyAliasesItsLastWindow(t *testing.T) {
	d := NewDecoder(make([]byte, 32))
	d.Slab(0)
	first := d.SlabBytes(3)
	copy(first, "one")
	second := d.SlabBytes(3)
	copy(second, "two")

	foreign := []byte("far")
	s := d.SlabString(foreign)
	foreign[0] = 'b'
	if s != "far" {
		t.Errorf("SlabString aliased foreign bytes: %q", s)
	}
	s = d.SlabString(first) // not the last window any more
	first[0] = 'X'
	if s != "one" {
		t.Errorf("SlabString aliased a stale window: %q", s)
	}
	s = d.SlabString(second)
	if s != "two" {
		t.Errorf("SlabString(last window) = %q", s)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		b := d.SlabBytes(1)
		b[0] = 'k'
		if d.SlabString(b) != "k" {
			t.Fatal("in-place conversion")
		}
		d.slab = d.slab[:len(d.slab)-1] // give the byte back: keep the slab from running out
	}); allocs != 0 {
		t.Errorf("in-place SlabString allocates %.0f times", allocs)
	}
	if d.SlabString(nil) != "" {
		t.Error("SlabString(nil)")
	}
}

// TestSlabSurvivesDecoderReuse is the retention contract: a string carved
// from a pooled decoder's slab stays intact after the decoder is
// released, handed out again, bound to another message that carves its
// own strings, and the collector has run — the pool reuses the Decoder,
// never the slab. Run under -race by `make ci`.
func TestSlabSurvivesDecoderReuse(t *testing.T) {
	const want = "kept-across-release"
	before := ReadPoolStats()
	d := getDecoder()
	d.Reset([]byte(want + "second"))
	d.Slab(0)
	kept := d.NextString(len(want))
	d.Release()

	for i := 0; i < 64; i++ {
		d2 := getDecoder() // very likely the same *Decoder
		d2.Reset(bytes.Repeat([]byte{'#'}, 64))
		d2.Slab(0)
		if s := d2.NextString(64); s != strings.Repeat("#", 64) {
			t.Fatalf("second message decoded %q", s)
		}
		d2.Release()
		runtime.GC()
	}
	if kept != want {
		t.Fatalf("retained string changed to %q", kept)
	}
	if got := ReadPoolStats().Sub(before); !got.Balanced() {
		t.Fatalf("pool unbalanced: %+v", got)
	}
}

// TestCheckLenCountGuard is the crafted-header regression for the
// allocation bound: a frame may not claim more elements than its
// remaining bytes can hold at the element's minimum wire size. Before
// the guard took that size, a 64 KiB frame could claim 65 000 elements
// of a 140-byte struct and force a ~10 MB make (152-byte Go structs).
func TestCheckLenCountGuard(t *testing.T) {
	const elemMin = 140
	for _, tc := range []struct {
		name  string
		order ByteOrder
		put   func([]byte, uint32)
	}{
		{"BE", BE, binary.BigEndian.PutUint32},
		{"LE", LE, binary.LittleEndian.PutUint32},
	} {
		frame := make([]byte, 64<<10)
		payload := len(frame) - 4
		fits := uint32(payload / elemMin)

		tc.put(frame, 65000)
		d := NewDecoder(frame)
		if n, ok := d.Len(tc.order, 0, false, elemMin); ok || !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("%s: hostile count accepted: n=%d ok=%v err=%v", tc.name, n, ok, d.Err())
		}
		// The same count passes the old bytes-only check: that is the
		// hole.
		d = NewDecoder(frame)
		if _, ok := d.Len(tc.order, 0, false, 1); !ok {
			t.Errorf("%s: count <= remaining rejected at elemMin 1: %v", tc.name, d.Err())
		}

		tc.put(frame, fits)
		d = NewDecoder(frame)
		if n, ok := d.Len(tc.order, 0, false, elemMin); !ok || n != int(fits) {
			t.Errorf("%s: largest honest count %d rejected: n=%d err=%v", tc.name, fits, n, d.Err())
		}
		tc.put(frame, fits+1)
		d = NewDecoder(frame)
		if _, ok := d.Len(tc.order, 0, false, elemMin); ok {
			t.Errorf("%s: count %d accepted with room for %d", tc.name, fits+1, fits)
		}
		// A non-positive minimum is the plain count <= remaining check.
		tc.put(frame, uint32(payload)+1)
		d = NewDecoder(frame)
		if _, ok := d.Len(tc.order, 0, false, 0); ok {
			t.Errorf("%s: count beyond the payload accepted at elemMin 0", tc.name)
		}
	}
}
