package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"flick"
	"flick/internal/backend/gostub"
)

// The compile workload's inputs: every IDL the repository ships, the
// inline MIG subsystem of verify_corpus_test.go, every committed
// //go:generate line, and one seeded synthetic CORBA interface.
var shippedIDLs = []string{
	"examples/idl/calc.x",
	"examples/idl/dir.idl",
	"examples/idl/mail.idl",
	"internal/teststubs/test.idl",
	"internal/typestubs/zoo.x",
	"internal/streamstubs/blob.idl",
	"internal/zcstubs/store.idl",
}

const migDefs = `
	subsystem bench 2400;
	routine send_ints(port : mach_port_t; v : array[] of int32_t);
`

// goldenDirs hold gen.go files whose //go:generate lines name a
// committed output of the compiler.
var goldenDirs = []string{
	"examples/internal/mailstubs", "examples/internal/dirstubs", "examples/internal/calcstubs",
	"internal/teststubs", "internal/typestubs", "internal/streamstubs", "internal/zcstubs", "internal/ablstubs",
}

var (
	crossFormats = []string{"xdr", "cdr-le", "mach3", "fluke"}
	crossStyles  = []string{"flick", "rpcgen"}
)

// unit is one flick.Compile call of the workload.
type unit struct {
	label string
	file  string // name handed to the compiler (selects the front end)
	src   string
	opt   flick.Options
	// golden, when set, is the committed file this unit must reproduce
	// byte for byte.
	golden string
	// filled by the set-up pass:
	outLen int
	hash   uint64
}

func hashOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// buildUnits assembles the unit list for one seed.
func buildUnits(root string, seed int64) ([]*unit, error) {
	var units []*unit
	cross := func(file, src string, langs []string) {
		for _, lang := range langs {
			for _, format := range crossFormats {
				for _, style := range crossStyles {
					units = append(units, &unit{
						label: fmt.Sprintf("%s/%s/%s/%s", filepath.Base(file), lang, format, style),
						file:  file, src: src,
						opt: flick.Options{Lang: lang, Format: format, Style: style, Package: "p", EmitRPC: lang == "go"},
					})
				}
			}
		}
	}
	for _, rel := range shippedIDLs {
		src, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return nil, err
		}
		cross(rel, string(src), []string{"go", "c"})
	}
	cross("bench.defs", migDefs, []string{"go"})

	for _, dir := range goldenDirs {
		gs, err := goldenUnits(root, dir)
		if err != nil {
			return nil, err
		}
		units = append(units, gs...)
	}

	syn := syntheticIDL(seed)
	for _, o := range []flick.Options{
		{Lang: "go", Format: "xdr", Style: "flick", Package: "p", EmitRPC: true},
		{Lang: "c", Format: "cdr-le", Style: "flick"},
	} {
		units = append(units, &unit{
			label: fmt.Sprintf("synthetic.idl/%s/%s/%s", o.Lang, o.Format, o.Style),
			file:  "synthetic.idl", src: syn, opt: o,
		})
	}
	return units, nil
}

// goldenUnits turns each `//go:generate go run flick/cmd/flick …` line
// of dir/gen.go into a unit carrying the same options, with the
// committed output as its reference.
func goldenUnits(root, dir string) ([]*unit, error) {
	f, err := os.Open(filepath.Join(root, dir, "gen.go"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	const prefix = "//go:generate go run flick/cmd/flick "
	var units []*unit
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		u, err := parseFlickArgs(strings.Fields(line[len(prefix):]))
		if err != nil {
			return nil, fmt.Errorf("%s/gen.go: %w", dir, err)
		}
		src, err := os.ReadFile(filepath.Join(root, dir, u.file))
		if err != nil {
			return nil, err
		}
		want, err := os.ReadFile(filepath.Join(root, dir, u.golden))
		if err != nil {
			return nil, err
		}
		u.label = filepath.Join(dir, u.golden)
		u.src, u.golden = string(src), string(want)
		units = append(units, u)
	}
	return units, sc.Err()
}

// parseFlickArgs maps cmd/flick's command line onto flick.Options, as
// that command's main does. unit.golden holds the -o name and
// unit.file the source argument on return.
func parseFlickArgs(args []string) (*unit, error) {
	fs := flag.NewFlagSet("flick", flag.ContinueOnError)
	var o flick.Options
	fs.StringVar(&o.IDL, "idl", "auto", "")
	fs.StringVar(&o.Lang, "lang", "go", "")
	fs.StringVar(&o.Format, "format", "xdr", "")
	fs.StringVar(&o.Style, "style", "flick", "")
	fs.StringVar(&o.Package, "package", "stubs", "")
	fs.StringVar(&o.FuncSuffix, "suffix", "", "")
	fs.BoolVar(&o.SkipDecls, "skip-decls", false, "")
	fs.BoolVar(&o.EmitRPC, "rpc", true, "")
	fs.StringVar(&o.Surfaces, "surfaces", "", "")
	fs.BoolVar(&o.SurfacesOnly, "surfaces-only", false, "")
	fs.BoolVar(&o.ZeroCopy, "zerocopy", false, "")
	out := fs.String("o", "", "")
	disable := fs.String("disable", "", "")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 || *out == "" {
		return nil, fmt.Errorf("want -o and one source file in %q", strings.Join(args, " "))
	}
	for _, d := range strings.Split(*disable, ",") {
		switch d {
		case "":
		case "group":
			o.DisableGroup = true
		case "chunk":
			o.DisableChunk = true
		case "memcpy":
			o.DisableMemcpy = true
		case "inline":
			o.DisableInline = true
		default:
			return nil, fmt.Errorf("unknown optimization %q", d)
		}
	}
	return &unit{file: fs.Arg(0), opt: o, golden: *out}, nil
}

// compileStats is what the set-up passes counted.
type compileStats struct {
	srcBytes, genBytes int
	total              gostub.Stats
}

// checkUnits compiles every unit twice. The first pass checks each
// output (non-empty, Go parses, golden units byte-identical) and
// records its length and hash; the second must hash identically.
func checkUnits(units []*unit) (*compileStats, error) {
	st := &compileStats{}
	fset := token.NewFileSet()
	for _, u := range units {
		opt := u.opt
		opt.Stats = &st.total
		out, err := flick.Compile(u.file, u.src, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.label, err)
		}
		if out == "" {
			return nil, fmt.Errorf("%s: empty output", u.label)
		}
		if u.opt.Lang == "go" {
			if _, err := parser.ParseFile(fset, u.label, out, parser.SkipObjectResolution); err != nil {
				return nil, fmt.Errorf("%s: generated Go does not parse: %w", u.label, err)
			}
		}
		if u.golden != "" && out != u.golden {
			return nil, fmt.Errorf("%s: output differs from the committed file", u.label)
		}
		u.outLen, u.hash = len(out), hashOf(out)
		st.srcBytes += len(u.src)
		st.genBytes += len(out)
	}
	if st.total.Verify.Findings != 0 {
		return nil, fmt.Errorf("%d verifier findings", st.total.Verify.Findings)
	}
	for _, u := range units {
		out, err := flick.Compile(u.file, u.src, u.opt)
		if err != nil {
			return nil, fmt.Errorf("%s (second pass): %w", u.label, err)
		}
		if hashOf(out) != u.hash {
			return nil, fmt.Errorf("%s: two compilations differ", u.label)
		}
	}
	return st, nil
}

// compileOp is the workload's single closed-loop caller: one
// flick.Compile per operation, round-robin over the units, default
// verification. Every output's length is checked; 1 in 64 is hashed.
func compileOp(units []*unit) op {
	var last *unit
	var lastOut string
	return op{
		call: func(k uint64) (int64, bool) {
			u := units[k%uint64(len(units))]
			out, err := flick.Compile(u.file, u.src, u.opt)
			last, lastOut = u, out
			return 0, err == nil && len(out) == u.outLen
		},
		deep: func() bool { return hashOf(lastOut) == last.hash },
	}
}

// --- The seeded synthetic interface ------------------------------------------

const (
	synOps   = 128
	synTypes = 32
)

// syntheticIDL writes a CORBA interface of synOps operations over
// synTypes types: structs, unions, bounded and unbounded sequences and
// strings, nested four deep. The shape — how many types of each kind,
// how many fields, which class of type each operation uses — is fixed,
// so compile cost is comparable across seeds; the seed places the
// primitive kinds and the members of each class, and picks bounds, case
// labels and names.
func syntheticIDL(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	// Primitive kinds and class members are dealt from shuffled decks,
	// not drawn independently: every seed uses each kind and each member
	// equally often, and differs only in where.
	deal := func(deck []string) func() string {
		n := 0
		return func() string {
			if n%len(deck) == 0 {
				r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			}
			n++
			return deck[(n-1)%len(deck)]
		}
	}
	prim := deal([]string{"long", "short", "octet", "double", "boolean", "unsigned long", "long long", "float", "char", "unsigned short"})
	tag := fmt.Sprintf("%04x", r.Intn(1<<16))
	var b strings.Builder
	fmt.Fprintf(&b, "// Synthetic interface, seed %d.\ninterface Syn%s {\n", seed, tag)

	// Type classes, filled as they are declared.
	classes := map[string][]string{}
	dealers := map[string]func() string{}
	declare := func(class, kind string, i int, body func(name string)) {
		name := fmt.Sprintf("%s%d_%s", kind, i, tag)
		body(name)
		classes[class] = append(classes[class], name)
	}
	pick := func(class string) string {
		if dealers[class] == nil { // a class is complete before its first use
			dealers[class] = deal(append([]string(nil), classes[class]...))
		}
		return dealers[class]()
	}
	structOf := func(class string, n int, i int, field func(j int) string) {
		declare(class, "s"+class, i, func(name string) {
			fmt.Fprintf(&b, "\tstruct %s {\n", name)
			for j := 0; j < n; j++ {
				fmt.Fprintf(&b, "\t\t%s f%d;\n", field(j), j)
			}
			b.WriteString("\t};\n")
		})
	}

	// Members of one class have the same number of fields, so which one
	// a seed picks changes the kinds compiled, not the amount of code.
	for i := 0; i < 6; i++ { // level 0: flat structs of mixed primitives
		structOf("l0s", 4, i, func(int) string { return prim() })
	}
	// Level 0: element structs. At this commit the MIR verifier rejects
	// a CDR sequence whose element struct ends in padding, so sequence
	// elements are structs of one 4-byte kind (see CHANGES.md).
	word := deal([]string{"long", "unsigned long", "float"})
	for i := 0; i < 2; i++ {
		structOf("l0e", 3, i, func(int) string { return word() })
	}
	for i := 0; i < 4; i++ { // level 0: sequences of primitives and strings
		declare("l0q", "q", i, func(name string) {
			switch i {
			case 0:
				fmt.Fprintf(&b, "\ttypedef sequence<%s> %s;\n", prim(), name)
			case 1:
				fmt.Fprintf(&b, "\ttypedef sequence<%s, %d> %s;\n", prim(), 16+r.Intn(240), name)
			case 2:
				fmt.Fprintf(&b, "\ttypedef sequence<octet> %s;\n", name)
			default:
				// Unbounded: a bounded sequence of variable-size elements
				// trips the verifier too.
				fmt.Fprintf(&b, "\ttypedef sequence<string<%d> > %s;\n", 8+r.Intn(56), name)
			}
		})
	}
	for i := 0; i < 8; i++ { // level 1: structs over level 0
		structOf("l1s", 4, i, func(j int) string {
			switch j {
			case 0:
				return pick("l0s")
			case 1:
				return pick("l0q")
			case 2:
				return fmt.Sprintf("string<%d>", 16+r.Intn(240))
			default:
				return prim()
			}
		})
	}
	for i := 0; i < 4; i++ { // level 1: unions over level 0
		declare("l1u", "u", i, func(name string) {
			base := r.Intn(100)
			fmt.Fprintf(&b, "\tunion %s switch (long) {\n", name)
			fmt.Fprintf(&b, "\t\tcase %d: %s a;\n", base, prim())
			fmt.Fprintf(&b, "\t\tcase %d: string b;\n", base+1+r.Intn(5))
			fmt.Fprintf(&b, "\t\tcase %d: %s c;\n", base+10+r.Intn(5), pick("l0s"))
			b.WriteString("\t};\n")
		})
	}
	for i := 0; i < 4; i++ { // level 2: structs over level 1
		structOf("l2s", 4, i, func(j int) string {
			switch j {
			case 0:
				return pick("l1s")
			case 1:
				return pick("l1u")
			case 2:
				return fmt.Sprintf("sequence<%s>", pick("l0e"))
			default:
				return prim()
			}
		})
	}
	// Level 2: a bounded sequence of fixed-size elements and an
	// unbounded one of variable-size level-1 structs.
	declare("l2q", "w", 0, func(name string) {
		fmt.Fprintf(&b, "\ttypedef sequence<%s, %d> %s;\n", pick("l0e"), 8+r.Intn(56), name)
	})
	declare("l2q", "w", 1, func(name string) {
		fmt.Fprintf(&b, "\ttypedef sequence<%s> %s;\n", pick("l1s"), name)
	})
	for i := 0; i < 2; i++ { // level 3: structs over level 2 (nesting depth 4)
		structOf("l3s", 3, i, func(j int) string {
			switch j {
			case 0:
				return pick("l2s")
			case 1:
				return pick("l2q")
			default:
				return prim()
			}
		})
	}

	// Operation i takes 1 + i%3 parameters; parameter j's class and
	// direction, and the result's class, are functions of i and j alone.
	// Shallow classes are used more often than deep ones, as in
	// hand-written interfaces.
	order := []string{"l0s", "l1s", "l0q", "l1u", "l0s", "l2s", "l0e", "l1s", "l0q", "l2q", "l0s", "l1u", "l3s", "l0e", "l0q"}
	dirs := []string{"in", "in", "out", "inout"}
	for i := 0; i < synOps; i++ {
		ret := "void"
		switch i % 4 {
		case 1:
			ret = "long"
		case 2:
			ret = pick(order[i%len(order)])
		}
		fmt.Fprintf(&b, "\t%s op%d_%s(", ret, i, tag)
		for j := 0; j <= i%3; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			typ := pick(order[(i+3*j)%len(order)])
			if (i+j)%2 == 0 {
				typ = prim()
			}
			fmt.Fprintf(&b, "%s %s p%d", dirs[(i+j)%len(dirs)], typ, j)
		}
		b.WriteString(");\n")
	}
	b.WriteString("};\n")
	return b.String()
}
