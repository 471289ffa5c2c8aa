package wire

import "testing"

func TestXDRRules(t *testing.T) {
	x := XDR{}
	if x.Order() != BigEndian {
		t.Error("XDR must be big-endian (RFC 1832)")
	}
	// Every standalone item occupies a multiple of four bytes.
	for _, a := range []Atom{U8, I8, U16, I16, Bool, Char} {
		if got := x.WireSize(a); got != 4 {
			t.Errorf("XDR WireSize(%v) = %d, want 4", a, got)
		}
	}
	if x.WireSize(U64) != 8 || x.WireSize(F64) != 8 {
		t.Error("XDR hyper/double must be 8 bytes")
	}
	// But opaque/string array elements pack.
	if x.ArrayElemSize(Char) != 1 || x.ArrayElemSize(U8) != 1 {
		t.Error("XDR must pack 8-bit array elements")
	}
	if x.ArrayElemSize(Bool) != 4 {
		t.Error("XDR bool arrays are arrays of ints")
	}
	if x.ArrayElemSize(U32) != 4 {
		t.Error("XDR int arrays are 4 bytes per element")
	}
	if x.ArrayPad() != 4 {
		t.Error("XDR pads opaque payloads to 4")
	}
	if x.StringNul() {
		t.Error("XDR strings carry no NUL")
	}
	if x.MaxAlign() != 4 || x.LenSize() != 4 {
		t.Error("XDR alignment/length rules")
	}
}

func TestCDRRules(t *testing.T) {
	be, le := CDR{}, CDR{Little: true}
	if be.Order() != BigEndian || le.Order() != LittleEndian {
		t.Error("CDR endianness selection")
	}
	if be.Name() != "cdr-be" || le.Name() != "cdr-le" {
		t.Error("CDR names")
	}
	// Natural sizes and alignment.
	for _, tt := range []struct {
		a     Atom
		size  int
		align int
	}{
		{U8, 1, 1}, {U16, 2, 2}, {U32, 4, 4}, {U64, 8, 8},
		{F32, 4, 4}, {F64, 8, 8}, {Bool, 1, 1}, {Char, 1, 1},
	} {
		if be.WireSize(tt.a) != tt.size || be.Align(tt.a) != tt.align {
			t.Errorf("CDR %v: size=%d align=%d", tt.a, be.WireSize(tt.a), be.Align(tt.a))
		}
	}
	if !be.StringNul() {
		t.Error("CDR strings are NUL-counted")
	}
	if be.ArrayPad() != 1 {
		t.Error("CDR has no array padding")
	}
	if be.MaxAlign() != 8 {
		t.Error("CDR max alignment is 8")
	}
}

func TestMachAndFlukeRules(t *testing.T) {
	m := Mach3{}
	if m.Order() != LittleEndian || m.WireSize(U64) != 8 || m.Align(U64) != 4 {
		t.Error("Mach3 rules (natural sizes, 4-byte max alignment)")
	}
	f := Fluke{}
	if f.Align(U64) != 1 || f.MaxAlign() != 1 {
		t.Error("Fluke is fully packed")
	}
	if f.WireSize(U16) != 2 {
		t.Error("Fluke natural sizes")
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"xdr": "xdr", "cdr": "cdr-be", "cdr-be": "cdr-be",
		"cdr-le": "cdr-le", "mach3": "mach3", "fluke": "fluke",
	} {
		f, ok := ByName(name)
		if !ok || f.Name() != want {
			t.Errorf("ByName(%q) = %v,%v", name, f, ok)
		}
	}
	if _, ok := ByName("ebcdic"); ok {
		t.Error("unknown format resolved")
	}
}

func TestAtomStrings(t *testing.T) {
	if UInt.String() != "uint" || SInt.String() != "int" || Float.String() != "float" ||
		BoolAtom.String() != "bool" || CharAtom.String() != "char" {
		t.Error("AtomKind names")
	}
	if BigEndian.String() != "big-endian" || LittleEndian.String() != "little-endian" {
		t.Error("ByteOrder names")
	}
}

// TestAlignmentsArePowersOfTwo pins the precondition rt's Encoder.Align
// and Decoder.Align rely on to pad with a mask instead of two divisions:
// every alignment a format can ask for — per atom, for array padding,
// and as its maximum — is a power of two.
func TestAlignmentsArePowersOfTwo(t *testing.T) {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	atoms := []Atom{U8, U16, U32, U64, I8, I16, I32, I64, F32, F64, Bool, Char}
	for _, name := range []string{"xdr", "cdr", "cdr-le", "mach3", "fluke"} {
		f, ok := ByName(name)
		if !ok {
			t.Fatalf("no format %q", name)
		}
		for _, a := range atoms {
			if n := f.Align(a); !pow2(n) {
				t.Errorf("%s: Align(%v) = %d, not a power of two", name, a, n)
			}
			if n := f.Align(a); n > f.MaxAlign() {
				t.Errorf("%s: Align(%v) = %d exceeds MaxAlign %d", name, a, n, f.MaxAlign())
			}
		}
		if n := f.MaxAlign(); !pow2(n) {
			t.Errorf("%s: MaxAlign = %d, not a power of two", name, n)
		}
		if n := f.ArrayPad(); !pow2(n) {
			t.Errorf("%s: ArrayPad = %d, not a power of two", name, n)
		}
	}
}
