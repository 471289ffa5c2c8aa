package slabstubs

import (
	"reflect"
	"strings"
	"testing"

	"flick/rt"
)

// TestSlabShapesAllocate pins what the storage plan buys on each corpus
// shape, in each committed emission: the allocations of one decode.
func TestSlabShapesAllocate(t *testing.T) {
	names := make([]string, 40)
	for i := range names {
		names[i] = strings.Repeat("n", 1+i%20)
	}
	doc := Doc{Title: "storage plans", Author: "flick", Body: []byte("one slab, three carves"), Rev: 21}
	docs := make([]Doc, 16)
	for i := range docs {
		docs[i] = doc
		docs[i].Rev = int32(i)
	}
	mixed := Mixed{Label: "label", Counts: []int32{1, 2, 3}, Note: "note"}

	allocs := func(msg []byte, decode func(*rt.Decoder) error) float64 {
		d := rt.NewDecoder(msg)
		return testing.AllocsPerRun(50, func() {
			d.Reset(msg)
			if err := decode(d); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name    string
		marshal func(*rt.Encoder)
		decode  func(*rt.Decoder) error
		want    float64
	}{
		// 40 strings: the []string and one slab (41 before).
		{"names/xdr", func(e *rt.Encoder) { MarshalSlabPutNamesXDRRequest(e, names) },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutNamesXDRRequest(d); return err }, 2},
		{"names/cdr", func(e *rt.Encoder) { MarshalSlabPutNamesCDRRequest(e, names) },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutNamesCDRRequest(d); return err }, 2},
		// Without memcpy each string decoded through a scratch make and
		// a string copy (81 before): now in place in its window.
		{"names/nomemcpy", func(e *rt.Encoder) { MarshalSlabPutNamesNoMemcpyRequest(e, names) },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutNamesNoMemcpyRequest(d); return err }, 2},
		// Two strings and a byte sequence, no loop: one slab (3 before).
		{"doc/xdr", func(e *rt.Encoder) { MarshalSlabPutDocXDRRequest(e, &doc) },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutDocXDRRequest(d); return err }, 1},
		{"doc/nomemcpy", func(e *rt.Encoder) { MarshalSlabPutDocNoMemcpyRequest(e, &doc) },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutDocNoMemcpyRequest(d); return err }, 1},
		// 16 of them: the []Doc and one slab (49 before).
		{"docs/xdr", func(e *rt.Encoder) { MarshalSlabPutDocsXDRRequest(e, docs) },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutDocsXDRRequest(d); return err }, 2},
		{"docs/cdr", func(e *rt.Encoder) { MarshalSlabPutDocsCDRRequest(e, docs) },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutDocsCDRRequest(d); return err }, 2},
		// Under -zerocopy the bodies are arena views, so the region is
		// refused: two strings per doc plus the []Doc, as before.
		{"docs/zerocopy", func(e *rt.Encoder) { MarshalSlabPutDocsZCRequest(e, docs) },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutDocsZCRequest(d); return err }, 33},
		// A sequence<long> between the strings refuses the region: both
		// strings and the []int32 allocate, as before.
		{"mixed/xdr", func(e *rt.Encoder) { MarshalSlabPutMixedXDRRequest(e, &mixed) },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutMixedXDRRequest(d); return err }, 3},
		// A lone string keeps its one allocation.
		{"key/xdr", func(e *rt.Encoder) { MarshalSlabPutKeyXDRRequest(e, "a lone key") },
			func(d *rt.Decoder) error { _, err := UnmarshalSlabPutKeyXDRRequest(d); return err }, 1},
	} {
		var e rt.Encoder
		tc.marshal(&e)
		if got := allocs(e.Bytes(), tc.decode); got != tc.want {
			t.Errorf("%s: %.0f allocations per decode, want %.0f", tc.name, got, tc.want)
		}
	}

	// And the values are the values.
	var e rt.Encoder
	MarshalSlabListXDRReply(&e, docs, 99)
	got, total, err := UnmarshalSlabListXDRReply(rt.NewDecoder(e.Bytes()))
	if err != nil || total != 99 || !reflect.DeepEqual(got, docs) {
		t.Errorf("list reply round trip: err %v total %d", err, total)
	}
}

// TestRecMarshalSpaceCheck pins the marshal-side space check of a
// string followed by a scalar in the committed emissions: a fresh
// encoder starts with no capacity and grows 64, 128, ... bytes, so a
// check that covers less than what is written (GrowDyn(n); Grow(k)
// reserved max(n, k), not n+k) overruns it at the lengths that fill a
// step exactly.
func TestRecMarshalSpaceCheck(t *testing.T) {
	for _, tc := range []struct {
		name    string
		marshal func(*rt.Encoder, *Rec)
		decode  func(*rt.Decoder) (Rec, error)
	}{
		{"xdr", MarshalSlabPutRecXDRRequest, UnmarshalSlabPutRecXDRRequest},
		{"cdr-le", MarshalSlabPutRecCDRRequest, UnmarshalSlabPutRecCDRRequest},
		{"xdr-nomemcpy", MarshalSlabPutRecNoMemcpyRequest, UnmarshalSlabPutRecNoMemcpyRequest},
		{"xdr-zerocopy", MarshalSlabPutRecZCRequest, UnmarshalSlabPutRecZCRequest},
	} {
		for n := 0; n <= 130; n++ {
			want := Rec{S: strings.Repeat("s", n), X: int32(n)}
			var e rt.Encoder
			tc.marshal(&e, &want)
			if got, err := tc.decode(rt.NewDecoder(e.Bytes())); err != nil || got != want {
				t.Fatalf("%s, %d-byte string: round trip = %+v, %v", tc.name, n, got, err)
			}
		}
	}
}
