package gostub_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flick"
	"flick/internal/lint"
)

// borrowIDL marks one operation //flick:borrow. Its in-parameters cover
// what the skeleton lends (arrays of atoms and enums) and what it does
// not (an array of structs, an octet array, a string, an inout array);
// its out array is the reply's, which never borrows.
const borrowIDL = `
interface Sink {
	struct point { long x; long y; };
	enum color { red, green };
	typedef sequence<long>   longs;
	typedef sequence<double> doubles;
	typedef sequence<color>  colors;
	typedef sequence<point>  points;
	typedef sequence<octet>  bytes;

	//flick:borrow
	longs put(in longs a, in doubles b, in colors k, in points p, in bytes raw,
		in string s, inout longs io, out longs o);
	long keep(in longs a);
};
`

// funcBody returns the text of the generated function name.
func funcBody(t *testing.T, src, name string) string {
	t.Helper()
	i := strings.Index(src, "func "+name+"(")
	if i < 0 {
		t.Fatalf("no function %s", name)
	}
	j := strings.Index(src[i:], "\n}\n")
	return src[i : i+j]
}

func TestBorrowLendsInParameterArrays(t *testing.T) {
	out, err := flick.Compile("sink.idl", borrowIDL, flick.Options{Package: "sink", EmitRPC: true})
	if err != nil {
		t.Fatal(err)
	}
	req := funcBody(t, out, "UnmarshalSinkPutRequest")
	for _, want := range []string{
		"a = rt.Borrow[int32](d,", "b = rt.Borrow[float64](d,", "k = rt.Borrow[SinkColor](d,",
		"p = make([]SinkPoint,", "io = make([]int32,",
	} {
		if !strings.Contains(req, want) {
			t.Errorf("put's request unmarshal lacks %q:\n%s", want, req)
		}
	}
	if strings.Contains(req, "rt.Borrow[byte]") {
		t.Error("an octet array was lent")
	}
	// Reply decoding runs on the client, where nothing ends a borrow.
	for _, name := range []string{"UnmarshalSinkPutReply", "UnmarshalSinkKeepRequest", "UnmarshalSinkKeepReply"} {
		if body := funcBody(t, out, name); strings.Contains(body, "rt.Borrow") {
			t.Errorf("%s borrows:\n%s", name, body)
		}
	}
	if !strings.Contains(out, "//flick:borrowed Put a b k\n") {
		t.Error("the server interface does not name put's lent arguments")
	}
	if n := strings.Count(out, "d.EndBorrow()"); n != 1 {
		t.Errorf("%d EndBorrow calls, want 1 (put's dispatch arm)", n)
	}

	// The output type-checks against rt and is clean under the whole
	// analyzer suite, arenalife included.
	exports, err := lint.ExportsFor("flick/rt")
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "sink.go")
	if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.TypecheckFiles("sink", []string{file}, exports)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Analyze(pkg, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestBorrowNeedsParamsAndTheFlickStyle: -disable params and the
// baseline styles decode every argument into fresh storage, so nothing
// is borrowed and the skeleton ends no borrow.
func TestBorrowNeedsParamsAndTheFlickStyle(t *testing.T) {
	borrowed := regexp.MustCompile(`rt\.Borrow|EndBorrow|//flick:borrowed`)
	for _, opts := range []flick.Options{
		{DisableParams: true},
		{Style: "rpcgen"},
		{Style: "powerrpc"},
	} {
		opts.Package, opts.EmitRPC = "sink", true
		out, err := flick.Compile("sink.idl", borrowIDL, opts)
		if err != nil {
			t.Fatal(err)
		}
		if m := borrowed.FindString(out); m != "" {
			t.Errorf("%+v: output contains %q", opts, m)
		}
		if opts.DisableParams && strings.Contains(out, "d.Slab(") {
			t.Error("-disable params still provisions a message slab")
		}
	}
}
