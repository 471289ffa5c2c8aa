package rt

import "testing"

// Tests for the lent in-parameter storage (Borrow): what EndBorrow gives
// back is lent again, and nothing else ever is.

func TestBorrowLendsAgainAfterEndBorrow(t *testing.T) {
	d := NewDecoder(nil)
	// message takes two arrays, the second past the storage the first
	// provisioned, and ends its borrow.
	message := func() ([]int32, []float64) {
		d.Reset(nil)
		a := Borrow[int32](d, 16)
		b := Borrow[float64](d, 3)
		for i, x := range a {
			if x != 0 {
				t.Fatalf("lent element %d = %d, want zeroed storage", i, x)
			}
		}
		a[15], b[0] = 1, 2
		if a[15] != 1 || b[0] != 2 || len(a) != 16 || cap(a) != 16 || len(b) != 3 {
			t.Fatal("the two arrays overlap or are misshapen")
		}
		d.EndBorrow()
		return a, b
	}
	message() // provisions storage for the whole message
	a1, b1 := message()
	a2, b2 := message()
	if &a2[0] != &a1[0] || &b2[0] != &b1[0] {
		t.Error("storage returned by EndBorrow was not lent to the next message")
	}
}

// TestBorrowWithoutEndBorrowIsNeverReused: storage whose borrow nobody
// ended — an error exit, a recovered panic, a direct Unmarshal caller —
// stays with whoever holds it.
func TestBorrowWithoutEndBorrowIsNeverReused(t *testing.T) {
	d := NewDecoder(nil)
	a := Borrow[int32](d, 16)
	a[0] = 42
	d.Reset(nil)
	b := Borrow[int32](d, 16)
	if &b[0] == &a[0] || a[0] != 42 {
		t.Error("storage still lent at Reset was lent again")
	}
}

// TestBorrowBounds: a message past the decoder's bound allocates as
// make would, and a zero count lends nothing.
func TestBorrowBounds(t *testing.T) {
	d := NewDecoder(nil)
	big := Borrow[int64](d, maxParamBytes/8+1)
	if d.lent != 0 || len(d.params) != 0 || len(big) != maxParamBytes/8+1 {
		t.Errorf("an oversize array was lent (lent %d words, kept %d)", d.lent, len(d.params))
	}
	if s := Borrow[byte](d, 0); s == nil || len(s) != 0 || d.lent != 0 {
		t.Errorf("Borrow(0) = %v with %d words lent, want an empty non-nil slice", s, d.lent)
	}
	Borrow[byte](d, maxParamBytes-8)
	if s := Borrow[byte](d, 9); d.lent != maxParamBytes/8-1 || len(s) != 9 {
		t.Errorf("an array past the bound was lent (lent %d words)", d.lent)
	}
	d.EndBorrow()
	d.Reset(nil)
	if allocs := testing.AllocsPerRun(10, func() {
		Borrow[uint16](d, 100)
		d.EndBorrow()
		d.Reset(nil)
	}); allocs != 0 {
		t.Errorf("re-lending returned storage allocates %.0f/op", allocs)
	}
}
