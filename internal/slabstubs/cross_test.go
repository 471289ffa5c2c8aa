// Package slabstubs is the storage-plan corpus (slab.idl): strings and
// byte sequences decoded into one slab per message. It commits no
// generated code; its tests compile slab.idl afresh and link the result
// into a throwaway main package (crossDriver) that checks it.
package slabstubs

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"flick"
	"flick/internal/verify"
)

// crossConfig is one point of the emission space: a wire format, a subset
// of the four §3 optimizations switched off, and -zerocopy (which needs
// memcpy).
type crossConfig struct {
	format   string
	disable  int // bit 0 group, 1 chunk, 2 memcpy, 3 inline
	zerocopy bool
}

func (c crossConfig) suffix() string {
	s := strings.NewReplacer("-", "").Replace(strings.ToUpper(c.format[:1]) + c.format[1:])
	s += fmt.Sprintf("D%x", c.disable)
	if c.zerocopy {
		s += "Z"
	}
	return s
}

func (c crossConfig) String() string {
	name := c.format
	for i, opt := range []string{"group", "chunk", "memcpy", "inline"} {
		if c.disable&(1<<i) != 0 {
			name += "-" + opt
		}
	}
	if c.zerocopy {
		name += "+zerocopy"
	}
	return name
}

// TestSlabCrossProduct compiles slab.idl under every wire format x every
// subset of -disable x -zerocopy into one throwaway main package, and
// runs it: for each configuration the generated request stubs must match
// the interpretive oracle (internal/interp) byte for byte and decode its
// bytes back to the value — on zero-capacity encoders, and for the
// string-then-scalar Rec at every string length from 0 to 130, so a
// space check that does not cover what is written overruns the buffer;
// the slab-planned reply must round-trip; every
// truncation and every hostile length word must end in an error, without
// a panic and without allocating more than a small multiple of the
// message. The storage plan changes which allocation backs a decoded
// string — this is the check that it changes nothing else, whatever
// shape the optimizer left the unmarshal program in.
//
// -short keeps two of the five formats (48 of 120 configurations).
func TestSlabCrossProduct(t *testing.T) {
	formats := []string{"xdr", "cdr", "cdr-le", "mach3", "fluke"}
	if testing.Short() {
		formats = []string{"xdr", "cdr-le"}
	}
	var configs []crossConfig
	for _, f := range formats {
		for disable := 0; disable < 16; disable++ {
			configs = append(configs, crossConfig{f, disable, false})
			if disable&4 == 0 {
				configs = append(configs, crossConfig{f, disable, true})
			}
		}
	}
	runDriver(t, configs, "cross")
}

// TestSlabShapesAllocate pins what the storage plan buys on each corpus
// shape: the allocations of one decode, in the four configurations the
// driver's decodeAllocs names, and a round trip of the list reply.
func TestSlabShapesAllocate(t *testing.T) {
	runDriver(t, []crossConfig{
		{"xdr", 0, false}, {"cdr-le", 0, false}, {"xdr", 4, false}, {"xdr", 0, true},
	}, "allocs")
}

// runDriver compiles slab.idl under each configuration, links the stubs
// into crossDriver and runs it in mode ("cross" or "allocs").
func runDriver(t *testing.T, configs []crossConfig, mode string) {
	src, err := os.ReadFile("slab.idl")
	if err != nil {
		t.Fatal(err)
	}

	// Inside the module (the driver imports flick/internal/...), under a
	// name the ./... patterns skip.
	dir, err := os.MkdirTemp(".", "_crossgen")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })

	var table strings.Builder
	for i, c := range configs {
		code, err := flick.Compile("slab.idl", string(src), flick.Options{
			IDL: "corba", Lang: "go", Format: c.format, Style: "flick",
			Package: "main", FuncSuffix: c.suffix(), SkipDecls: i > 0,
			DisableGroup: c.disable&1 != 0, DisableChunk: c.disable&2 != 0,
			DisableMemcpy: c.disable&4 != 0, DisableInline: c.disable&8 != 0,
			ZeroCopy: c.zerocopy,
			Verify:   verify.Strict,
		})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if strings.Contains(code, `"unsafe"`) {
			t.Errorf("%s: generated code imports unsafe", c)
		}
		if err := os.WriteFile(filepath.Join(dir, "gen_"+c.suffix()+".go"), []byte(code), 0o644); err != nil {
			t.Fatal(err)
		}
		s := c.suffix()
		fmt.Fprintf(&table, "\t{%q, %q,\n", c.String(), c.format)
		for _, op := range []string{"PutNames", "PutLines", "PutDoc", "PutDocs", "PutMixed", "PutKey", "PutRec"} {
			fmt.Fprintf(&table, "\t\tMarshalSlab%s%sRequest, UnmarshalSlab%s%sRequest,\n", op, s, op, s)
		}
		fmt.Fprintf(&table, "\t\tMarshalSlabList%sReply, UnmarshalSlabList%sReply},\n", s, s)
	}
	driver := strings.Replace(crossDriver, "/*CONFIGS*/", table.String(), 1)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(driver), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "run", "./"+dir, mode)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s driver failed: %v\n%s", mode, err, out)
	}
	want := fmt.Sprintf("ok %d configurations", len(configs))
	if !strings.Contains(string(out), want) {
		t.Fatalf("driver did not report %q:\n%s", want, out)
	}
	t.Log(strings.TrimSpace(string(out)))
}

// crossDriver is the main package the generated stubs are linked into.
const crossDriver = `package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"flick/internal/frontend/corbaidl"
	"flick/internal/interp"
	"flick/internal/pgen"
	"flick/internal/pres"
	"flick/internal/presc"
	"flick/internal/wire"
	"flick/rt"
)

type config struct {
	name, format string
	mNames func(*rt.Encoder, []string)
	uNames func(*rt.Decoder) ([]string, error)
	mLines func(*rt.Encoder, []string)
	uLines func(*rt.Decoder) ([]string, error)
	mDoc   func(*rt.Encoder, *Doc)
	uDoc   func(*rt.Decoder) (Doc, error)
	mDocs  func(*rt.Encoder, []Doc)
	uDocs  func(*rt.Decoder) ([]Doc, error)
	mMixed func(*rt.Encoder, *Mixed)
	uMixed func(*rt.Decoder) (Mixed, error)
	mKey   func(*rt.Encoder, string)
	uKey   func(*rt.Decoder) (string, error)
	mRec   func(*rt.Encoder, *Rec)
	uRec   func(*rt.Decoder) (Rec, error)
	mList  func(*rt.Encoder, []Doc, int32)
	uList  func(*rt.Decoder) ([]Doc, int32, error)
}

var configs = []config{
/*CONFIGS*/}

var failures int

func failf(format string, args ...any) {
	failures++
	if failures <= 20 {
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
}

func text(r *rand.Rand, max int) string {
	b := make([]byte, r.Intn(max+1))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func texts(r *rand.Rand, max int) []string {
	v := make([]string, r.Intn(9))
	for i := range v {
		v[i] = text(r, max)
	}
	return v
}

func doc(r *rand.Rand) Doc {
	body := make([]byte, r.Intn(40))
	r.Read(body)
	return Doc{Title: text(r, 30), Author: text(r, 64), Body: body, Rev: r.Int31()}
}

func docs(r *rand.Rand) []Doc {
	v := make([]Doc, r.Intn(6))
	for i := range v {
		v[i] = doc(r)
	}
	return v
}

func mixed(r *rand.Rand) Mixed {
	c := make([]int32, r.Intn(5))
	for i := range c {
		c[i] = r.Int31()
	}
	return Mixed{Label: text(r, 12), Counts: c, Note: text(r, 12)}
}

// allocatedBy reports the bytes f allocates (the driver is
// single-goroutine).
func allocatedBy(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// abuse decodes every truncation of msg (each must fail) and msg with
// each aligned 32-bit word in turn replaced by a huge count in either
// byte order (each must end without a panic; most fail, a few land on
// scalars and decode). A decode may allocate a small multiple of the
// message it was handed, never what a length word claims: the sweep as
// a whole is held to that budget, which one count-sized make anywhere
// in it would blow.
func abuse(where string, msg []byte, decode func([]byte) error) {
	for cut := 0; cut < len(msg); cut++ {
		if decode(msg[:cut]) == nil {
			failf("%s: truncated to %d of %d bytes, decoded without error", where, cut, len(msg))
			return
		}
	}
	words := [][]byte{{0x7f, 0xff, 0xff, 0xf0}, {0xf0, 0xff, 0xff, 0x7f}, {0, 1, 0, 0}, {0, 0, 1, 0}}
	bad := make([]byte, len(msg))
	decodes := 0
	cost := allocatedBy(func() {
		for off := 0; off+4 <= len(msg); off += 4 {
			for _, word := range words {
				copy(bad, msg)
				copy(bad[off:], word)
				decode(bad)
				decodes++
			}
		}
	})
	// 1 KiB per decode covers the wrapped error a failed decode formats.
	if limit := uint64(decodes * (1024 + 8*len(msg))); cost > limit {
		failf("%s: %d hostile decodes of a %d-byte message allocated %d bytes (limit %d)", where, decodes, len(msg), cost, limit)
	}
}

// decodeAllocs pins what the storage plan buys on each corpus shape: the
// allocations of one decode of the fixed value checkAllocs marshals, by
// configuration and operation.
var decodeAllocs = map[string]float64{
	// 40 strings: the []string and one slab (41 without the plan).
	"xdr put_names": 2, "cdr-le put_names": 2,
	// Without memcpy each string would decode through a scratch make and
	// a string copy (81): the plan decodes it in place in its window.
	"xdr-memcpy put_names": 2,
	// Two strings and a byte sequence, no loop: one slab (3 without).
	"xdr put_doc": 1, "xdr-memcpy put_doc": 1,
	// 16 of them: the []Doc and one slab (49 without).
	"xdr put_docs": 2, "cdr-le put_docs": 2,
	// Under -zerocopy the bodies are arena views, so the region is
	// refused: two strings per doc plus the []Doc.
	"xdr+zerocopy put_docs": 33,
	// A sequence<long> between the strings refuses the region: both
	// strings and the []int32 allocate.
	"xdr put_mixed": 3,
	// A lone string keeps its one allocation.
	"xdr put_key": 1,
}

var allocsChecked int

// checkAllocs measures the decodes decodeAllocs pins for c, and
// round-trips the list reply of the same docs.
func checkAllocs(c config) {
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
	for _, s := range []struct {
		op      string
		marshal func(*rt.Encoder)
		decode  func(*rt.Decoder) error
	}{
		{"put_names", func(e *rt.Encoder) { c.mNames(e, names) }, func(d *rt.Decoder) error { _, err := c.uNames(d); return err }},
		{"put_doc", func(e *rt.Encoder) { c.mDoc(e, &doc) }, func(d *rt.Decoder) error { _, err := c.uDoc(d); return err }},
		{"put_docs", func(e *rt.Encoder) { c.mDocs(e, docs) }, func(d *rt.Decoder) error { _, err := c.uDocs(d); return err }},
		{"put_mixed", func(e *rt.Encoder) { c.mMixed(e, &mixed) }, func(d *rt.Decoder) error { _, err := c.uMixed(d); return err }},
		{"put_key", func(e *rt.Encoder) { c.mKey(e, "a lone key") }, func(d *rt.Decoder) error { _, err := c.uKey(d); return err }},
	} {
		want, ok := decodeAllocs[c.name+" "+s.op]
		if !ok {
			continue
		}
		allocsChecked++
		var e rt.Encoder
		s.marshal(&e)
		msg := e.Bytes()
		d := rt.NewDecoder(msg)
		got := testing.AllocsPerRun(50, func() {
			d.Reset(msg)
			if err := s.decode(d); err != nil {
				failf("%s %s: decode: %v", c.name, s.op, err)
			}
		})
		if got != want {
			failf("%s %s: %.0f allocations per decode, want %.0f", c.name, s.op, got, want)
		}
	}

	var e rt.Encoder
	c.mList(&e, docs, 99)
	got, total, err := c.uList(rt.NewDecoder(e.Bytes()))
	if err != nil || total != 99 || !reflect.DeepEqual(got, docs) {
		failf("%s list reply round trip: err %v total %d", c.name, err, total)
	}
}

// check runs one request stub pair against the oracle for several values.
func check[T any](c config, m *interp.Marshaler, node *pres.Node, op string, seed int64,
	gen func(*rand.Rand) T, marshal func(*rt.Encoder, T), unmarshal func(*rt.Decoder) (T, error)) {
	r := rand.New(rand.NewSource(seed))
	for round := 0; round < 6; round++ {
		v := gen(r)
		where := fmt.Sprintf("%s %s #%d", c.name, op, round)
		var stub, oracle rt.Encoder
		marshal(&stub, v)
		if err := m.Marshal(&oracle, node, v); err != nil {
			failf("%s: oracle marshal: %v", where, err)
			return
		}
		msg := append([]byte(nil), oracle.Bytes()...)
		if !bytes.Equal(stub.Bytes(), msg) {
			failf("%s: wire bytes differ\n stub   %x\n oracle %x", where, stub.Bytes(), msg)
			return
		}
		got, err := unmarshal(rt.NewDecoder(msg))
		if err != nil || !reflect.DeepEqual(got, v) {
			failf("%s: decode of oracle bytes: err=%v\n got  %+v\n want %+v", where, err, got, v)
			return
		}
		if round == 0 {
			abuse(where, msg, func(b []byte) error { _, err := unmarshal(rt.NewDecoder(b)); return err })
		}
	}
}

// main runs the mode named by its argument: "allocs" measures the
// decodes decodeAllocs pins, anything else checks every configuration
// against the oracle.
func main() {
	if len(os.Args) > 1 && os.Args[1] == "allocs" {
		for _, c := range configs {
			checkAllocs(c)
		}
		if allocsChecked != len(decodeAllocs) {
			failf("measured %d of the %d decodes decodeAllocs pins", allocsChecked, len(decodeAllocs))
		}
	} else {
		cross()
	}
	if failures > 0 {
		fmt.Printf("%d failures\n", failures)
		os.Exit(1)
	}
	fmt.Printf("ok %d configurations\n", len(configs))
}

// cross checks each configuration's stubs against the oracle.
func cross() {
	src, err := os.ReadFile("slab.idl")
	if err != nil {
		fmt.Println(err)
		os.Exit(2)
	}
	f, err := corbaidl.Parse("slab.idl", string(src))
	if err != nil {
		fmt.Println(err)
		os.Exit(2)
	}
	pf, err := pgen.GenerateGo(f, presc.Client)
	if err != nil {
		fmt.Println(err)
		os.Exit(2)
	}
	node := map[string]*pres.Node{}
	for _, s := range pf.Stubs {
		node[s.Op] = s.Params[0].Request
	}
	for i, c := range configs {
		wf, ok := wire.ByName(c.format)
		if !ok {
			fmt.Println("no format", c.format)
			os.Exit(2)
		}
		m := interp.New(wf, interp.ILU)
		seed := int64(i)*7 + 1
		check(c, m, node["put_names"], "put_names", seed, func(r *rand.Rand) []string { return texts(r, 20) }, c.mNames, c.uNames)
		check(c, m, node["put_lines"], "put_lines", seed, func(r *rand.Rand) []string { return texts(r, 90) }, c.mLines, c.uLines)
		check(c, m, node["put_doc"], "put_doc", seed, doc,
			func(e *rt.Encoder, v Doc) { c.mDoc(e, &v) }, c.uDoc)
		check(c, m, node["put_docs"], "put_docs", seed, docs, c.mDocs, c.uDocs)
		check(c, m, node["put_mixed"], "put_mixed", seed, mixed,
			func(e *rt.Encoder, v Mixed) { c.mMixed(e, &v) }, c.uMixed)
		check(c, m, node["put_key"], "put_key", seed, func(r *rand.Rand) string { return text(r, 40) }, c.mKey, c.uKey)
		// Every string length around the encoder's first two capacity
		// steps (64 and 128 bytes), each on a fresh encoder.
		for n := 0; n <= 130 && failures == 0; n++ {
			v := Rec{S: string(bytes.Repeat([]byte{'s'}, n)), X: int32(n)}
			var stub, oracle rt.Encoder
			c.mRec(&stub, &v)
			if err := m.Marshal(&oracle, node["put_rec"], v); err != nil || !bytes.Equal(stub.Bytes(), oracle.Bytes()) {
				failf("%s put_rec len %d: err=%v\n stub   %x\n oracle %x", c.name, n, err, stub.Bytes(), oracle.Bytes())
			}
			if got, err := c.uRec(rt.NewDecoder(stub.Bytes())); err != nil || got != v {
				failf("%s put_rec len %d: decode: %v", c.name, n, err)
			}
		}

		// The reply (status word + result + out parameter) has no
		// oracle entry point: round-trip it.
		r := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			want, total := docs(r), r.Int31()
			var e rt.Encoder
			c.mList(&e, want, total)
			msg := append([]byte(nil), e.Bytes()...)
			got, gotTotal, err := c.uList(rt.NewDecoder(msg))
			if err != nil || gotTotal != total || !reflect.DeepEqual(got, want) {
				failf("%s list #%d: err=%v total %d/%d\n got  %+v\n want %+v", c.name, round, err, gotTotal, total, got, want)
				break
			}
			if round == 0 {
				abuse(c.name+" list", msg, func(b []byte) error { _, _, err := c.uList(rt.NewDecoder(b)); return err })
			}
		}
	}
}
`
