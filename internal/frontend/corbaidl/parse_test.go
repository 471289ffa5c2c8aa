package corbaidl

import (
	"strings"
	"testing"

	"flick/internal/aoi"
)

func mustParse(t *testing.T, src string) *aoi.File {
	t.Helper()
	f, err := Parse("test.idl", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseMail(t *testing.T) {
	// The paper's introductory example.
	f := mustParse(t, `
		interface Mail {
			void send(in string msg);
		};
	`)
	it := f.LookupInterface("Mail")
	if it == nil {
		t.Fatal("no Mail interface")
	}
	if it.ID != "IDL:Mail:1.0" {
		t.Errorf("ID = %q", it.ID)
	}
	op := it.LookupOp("send")
	if op == nil {
		t.Fatal("no send op")
	}
	if !aoi.IsVoid(op.Result) {
		t.Errorf("result = %v, want void", op.Result)
	}
	if len(op.Params) != 1 || op.Params[0].Dir != aoi.In {
		t.Fatalf("params = %+v", op.Params)
	}
	if _, ok := op.Params[0].Type.(*aoi.String); !ok {
		t.Errorf("param type = %T, want string", op.Params[0].Type)
	}
}

func TestParseDirectoryInterface(t *testing.T) {
	// The paper's evaluation interface: arrays of ints, rects, and
	// variable-size directory entries.
	f := mustParse(t, `
		interface Test {
			struct point { long x; long y; };
			struct rect  { point min; point max; };
			struct stat_info {
				long fields[30];
				char tag[16];
			};
			struct dir_entry {
				string<255> name;
				stat_info   info;
			};
			typedef sequence<long>      int_seq;
			typedef sequence<rect>      rect_seq;
			typedef sequence<dir_entry> dir_seq;

			void send_ints(in int_seq v);
			void send_rects(in rect_seq v);
			void send_dirs(in dir_seq v);
		};
	`)
	it := f.LookupInterface("Test")
	if it == nil {
		t.Fatal("no Test interface")
	}
	if len(it.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(it.Ops))
	}
	for i, op := range it.Ops {
		if op.Code != uint32(i) {
			t.Errorf("op %s code = %d, want %d", op.Name, op.Code, i)
		}
	}
	rect := f.LookupType("Test::rect")
	if rect == nil {
		t.Fatal("no rect type")
	}
	st := rect.Type.(*aoi.Struct)
	if len(st.Fields) != 2 || st.Fields[0].Name != "min" {
		t.Fatalf("rect fields = %+v", st.Fields)
	}
	inner, ok := aoi.Resolve(st.Fields[0].Type).(*aoi.Struct)
	if !ok || len(inner.Fields) != 2 {
		t.Fatalf("rect.min = %v", st.Fields[0].Type)
	}
	de := f.LookupType("Test::dir_entry").Type.(*aoi.Struct)
	name := aoi.Resolve(de.Fields[0].Type).(*aoi.String)
	if name.Bound != 255 {
		t.Errorf("dir_entry.name bound = %d", name.Bound)
	}
	si := aoi.Resolve(de.Fields[1].Type).(*aoi.Struct)
	arr := aoi.Resolve(si.Fields[0].Type).(*aoi.Array)
	if arr.Length != 30 {
		t.Errorf("stat_info.fields length = %d", arr.Length)
	}
}

func TestModulesAndScoping(t *testing.T) {
	f := mustParse(t, `
		module Post {
			typedef unsigned long stamp_t;
			module Inner {
				struct letter { stamp_t stamp; };
			};
			interface Office {
				Inner::letter fetch(in stamp_t s);
			};
		};
	`)
	if td := f.LookupType("Post::Inner::letter"); td == nil {
		t.Fatal("no Post::Inner::letter")
	}
	it := f.LookupInterface("Office")
	if it == nil || it.Module != "Post" {
		t.Fatalf("interface = %+v", it)
	}
	if it.QualifiedName() != "Post::Office" {
		t.Errorf("qualified = %q", it.QualifiedName())
	}
	op := it.LookupOp("fetch")
	st, ok := aoi.Resolve(op.Result).(*aoi.Struct)
	if !ok || st.Name != "Post::Inner::letter" {
		t.Errorf("result = %v", op.Result)
	}
}

func TestInheritance(t *testing.T) {
	f := mustParse(t, `
		interface Base {
			exception Fail { long code; };
			void ping() raises (Fail);
		};
		interface Derived : Base {
			void extra();
		};
	`)
	d := f.LookupInterface("Derived")
	if d == nil || len(d.Ops) != 2 {
		t.Fatalf("derived ops = %+v", d)
	}
	if d.Ops[0].Name != "ping" || d.Ops[0].Code != 0 {
		t.Errorf("inherited op = %+v", d.Ops[0])
	}
	if d.Ops[1].Name != "extra" || d.Ops[1].Code != 1 {
		t.Errorf("own op = %+v", d.Ops[1])
	}
	if len(d.Excepts) != 1 || d.Excepts[0].Name != "Fail" {
		t.Errorf("inherited exceptions = %+v", d.Excepts)
	}
}

func TestAttributesExpandLater(t *testing.T) {
	f := mustParse(t, `
		interface Account {
			readonly attribute long balance;
			attribute string owner;
		};
	`)
	it := f.LookupInterface("Account")
	if len(it.Attrs) != 2 {
		t.Fatalf("attrs = %+v", it.Attrs)
	}
	if !it.Attrs[0].ReadOnly || it.Attrs[1].ReadOnly {
		t.Error("readonly flags wrong")
	}
}

func TestUnionsAndEnums(t *testing.T) {
	f := mustParse(t, `
		enum color { RED, GREEN, BLUE };
		union shade switch (color) {
			case RED:   long r;
			case GREEN:
			case BLUE:  float gb;
			default:    string name;
		};
		union tagged switch (long) {
			case 1: long a;
			case 2: string b;
		};
	`)
	e := f.LookupType("color").Type.(*aoi.Enum)
	if len(e.Members) != 3 || e.Values[2] != 2 {
		t.Fatalf("enum = %+v", e)
	}
	u := f.LookupType("shade").Type.(*aoi.Union)
	if len(u.Cases) != 3 {
		t.Fatalf("cases = %+v", u.Cases)
	}
	if got := u.Cases[1].Labels; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("multi-label arm = %v", got)
	}
	if !u.Cases[2].IsDefault {
		t.Error("missing default arm")
	}
	tagged := f.LookupType("tagged").Type.(*aoi.Union)
	if tagged.HasDefault() {
		t.Error("tagged should have no default")
	}
}

func TestConstExpressions(t *testing.T) {
	f := mustParse(t, `
		const long A = 10;
		const long B = A * 2 + 5;
		const long C = (B | 0x10) << 2;
		const long D = -3;
		const long E = ~0 & 0xFF;
		const string GREETING = "hello";
		typedef long buf[B];
	`)
	want := map[string]int64{"A": 10, "B": 25, "C": (25 | 0x10) << 2, "D": -3, "E": 0xFF}
	for _, cd := range f.Consts {
		if w, ok := want[cd.Name]; ok && cd.Int != w {
			t.Errorf("%s = %d, want %d", cd.Name, cd.Int, w)
		}
	}
	if f.Consts[5].Str != "hello" {
		t.Errorf("GREETING = %q", f.Consts[5].Str)
	}
	arr := f.LookupType("buf").Type.(*aoi.Array)
	if arr.Length != 25 {
		t.Errorf("buf length = %d", arr.Length)
	}
}

func TestOneway(t *testing.T) {
	f := mustParse(t, `
		interface Log {
			oneway void note(in string msg);
		};
	`)
	op := f.LookupInterface("Log").LookupOp("note")
	if !op.Oneway {
		t.Error("oneway not set")
	}
}

func TestObjectReferences(t *testing.T) {
	f := mustParse(t, `
		interface Callback;
		interface Registry {
			void register(in Callback cb);
			Registry self();
		};
	`)
	it := f.LookupInterface("Registry")
	p := it.LookupOp("register").Params[0]
	if _, ok := p.Type.(*aoi.InterfaceRef); !ok {
		t.Errorf("callback param = %T", p.Type)
	}
	if _, ok := it.LookupOp("self").Result.(*aoi.InterfaceRef); !ok {
		t.Errorf("self result = %T", it.LookupOp("self").Result)
	}
}

func TestComments(t *testing.T) {
	mustParse(t, `
		// line comment
		/* block
		   comment */
		#pragma prefix "x"
		interface I { void f(); };
	`)
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		src     string
		wantSub string
	}{
		{`interface I { void f(in long); };`, "expected identifier"},
		{`interface I { void f(long x); };`, "parameter direction"},
		{`typedef sequence<undefined_t> s;`, "undefined type"},
		{`interface I { void f() raises (NoSuch); };`, "undeclared exception"},
		{`struct s { any a; };`, "not supported"},
		{`const long X = 1/0;`, "division by zero"},
		{`const long X = Y;`, "undefined constant"},
		{`interface I { void f(); }`, "expected"},
		{`union u switch (string) { case 1: long a; };`, "invalid discriminator"},
		{`struct s { long x; long x; };`, "duplicate field"},
		{`struct s { long x; };  struct s { long y; };`, "redefinition"},
		{`module M { interface I {`, "unexpected end of file"},
		{`/* unterminated`, "unterminated comment"},
		{`const string S = "unterminated`, "unterminated string"},
		{`&`, "unexpected"},
		{`interface I : NoParent { void f(); };`, "unknown base interface"},
	}
	for _, tt := range tests {
		_, err := Parse("err.idl", tt.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tt.src, tt.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantSub) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tt.src, err, tt.wantSub)
		}
	}
}

func TestErrorsHavePositions(t *testing.T) {
	_, err := Parse("pos.idl", "interface I {\n  void f(bad long x);\n};")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "pos.idl:2:") {
		t.Errorf("error %q lacks position", err)
	}
}

func TestBoundedSequenceAndString(t *testing.T) {
	f := mustParse(t, `
		typedef sequence<octet, 512> blob;
		typedef string<64> name_t;
	`)
	seq := f.LookupType("blob").Type.(*aoi.Sequence)
	if seq.Bound != 512 {
		t.Errorf("blob bound = %d", seq.Bound)
	}
	if _, ok := seq.Elem.(*aoi.Primitive); !ok {
		t.Errorf("blob elem = %T", seq.Elem)
	}
	st := f.LookupType("name_t").Type.(*aoi.String)
	if st.Bound != 64 {
		t.Errorf("name_t bound = %d", st.Bound)
	}
}

func TestPrimitiveTypes(t *testing.T) {
	f := mustParse(t, `
		struct all {
			boolean b; octet o; char c;
			short s; unsigned short us;
			long l; unsigned long ul;
			long long ll; unsigned long long ull;
			float f; double d;
		};
	`)
	st := f.LookupType("all").Type.(*aoi.Struct)
	kinds := []aoi.PrimKind{
		aoi.Boolean, aoi.Octet, aoi.Char, aoi.Short, aoi.UShort,
		aoi.Long, aoi.ULong, aoi.LongLong, aoi.ULongLong, aoi.Float, aoi.Double,
	}
	if len(st.Fields) != len(kinds) {
		t.Fatalf("fields = %d", len(st.Fields))
	}
	for i, k := range kinds {
		p, ok := st.Fields[i].Type.(*aoi.Primitive)
		if !ok || p.Kind != k {
			t.Errorf("field %d = %v, want %v", i, st.Fields[i].Type, k)
		}
	}
}

// TestNestedAngleBrackets: the lexer's longest match makes the two
// closers of nested brackets one ">>" token; where the grammar wants '>'
// the parser splits it. Inside a bracket ">>" never shifts (parentheses
// bring the operator back); outside it still does.
func TestNestedAngleBrackets(t *testing.T) {
	f := mustParse(t, `
		const long K = 256 >> 2;
		typedef sequence<string<20>> names;
		typedef sequence<sequence<long>> grid;
		typedef sequence<sequence<string<(K>>2)>, 4>> deep;
		typedef sequence<string<20> > spaced;
	`)
	names := f.LookupType("names").Type.(*aoi.Sequence)
	if s, ok := names.Elem.(*aoi.String); !ok || s.Bound != 20 || names.Bound != 0 {
		t.Errorf("names = sequence<%v>, bound %d", names.Elem, names.Bound)
	}
	grid := f.LookupType("grid").Type.(*aoi.Sequence)
	if inner, ok := grid.Elem.(*aoi.Sequence); !ok || inner.Bound != 0 {
		t.Errorf("grid elem = %v", grid.Elem)
	}
	deep := f.LookupType("deep").Type.(*aoi.Sequence)
	mid, ok := deep.Elem.(*aoi.Sequence)
	if !ok || mid.Bound != 4 {
		t.Fatalf("deep elem = %v", deep.Elem)
	}
	if s, ok := mid.Elem.(*aoi.String); !ok || s.Bound != 16 {
		t.Errorf("deep innermost = %v, want string<16>", mid.Elem)
	}
	spaced := f.LookupType("spaced").Type.(*aoi.Sequence)
	if s, ok := spaced.Elem.(*aoi.String); !ok || s.Bound != 20 {
		t.Errorf("spaced elem = %v", spaced.Elem)
	}
}

// TestUnbalancedAngleBrackets: splitting ">>" must not hide a genuinely
// unbalanced bracket — one closer too many or too few is still a
// positioned error naming what was expected.
func TestUnbalancedAngleBrackets(t *testing.T) {
	for _, tt := range []struct{ src, want string }{
		{"typedef sequence<string<20>>> q;", `bad.idl:1:29: expected identifier, found ">"`},
		{"typedef sequence<string<20> q;", `bad.idl:1:29: expected ">", found "q"`},
		{"typedef sequence<long>> q;", `bad.idl:1:23: expected identifier, found ">"`},
		{"typedef string<20 >> 1> s;", `bad.idl:1:20: expected identifier, found ">"`},
	} {
		_, err := Parse("bad.idl", tt.src)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tt.src, err, tt.want)
		}
	}
}
