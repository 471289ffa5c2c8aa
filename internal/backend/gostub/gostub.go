// Package gostub is Flick-Go's executable back end: it renders mir
// marshal programs as Go source. It plays the role CAST plays for C —
// the paper's design explicitly anticipates swapping the target-language
// layer this way.
//
// Three code styles model the compilers of the paper's evaluation:
//
//   - StyleFlick: the optimized output (grouped buffer checks, chunk
//     windows, bulk copies, inlined marshal code).
//   - StyleRpcgen: per-datum checked runtime calls, one marshal function
//     per named type — the structure of rpcgen's xdr_* routines.
//   - StylePowerRPC: rpcgen structure plus an extra indirection through a
//     function table on every datum.
package gostub

import (
	"fmt"
	"go/format"
	"strings"

	"flick/internal/backend"
	"flick/internal/mir"
	"flick/internal/pres"
	"flick/internal/presc"
	"flick/internal/verify"
	"flick/internal/wire"
)

// Style selects the emitted code shape.
type Style int

const (
	StyleFlick Style = iota
	StyleRpcgen
	StylePowerRPC
)

func (s Style) String() string {
	switch s {
	case StyleFlick:
		return "flick"
	case StyleRpcgen:
		return "rpcgen"
	case StylePowerRPC:
		return "powerrpc"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// Config parameterizes generation.
type Config struct {
	// Package names the generated Go package.
	Package string
	// Format is the wire encoding.
	Format wire.Format
	// Style selects optimized or baseline code shapes.
	Style Style
	// Opts overrides the mir optimization set; nil uses the style's
	// default (all on for Flick, all off for the baselines).
	Opts *mir.Options
	// FuncSuffix distinguishes multiple configurations generated into
	// one package (e.g. "XDR", "Naive").
	FuncSuffix string
	// SkipDecls omits the presented type declarations (set when another
	// configuration in the same package already emitted them).
	SkipDecls bool
	// EmitRPC adds client stubs and a server dispatcher on top of the
	// marshal/unmarshal functions.
	EmitRPC bool
	// Surfaces selects the presentation surfaces emitted over the
	// shared marshal core when EmitRPC is set, in order. Nil means
	// sync only — the classic blocking presentation, byte-identical to
	// the pre-surface emitter.
	Surfaces []Surface
	// SurfacesOnly emits only the surface shells (methods and their
	// support types) for an interface whose marshal functions, client
	// type, server interface, and dispatcher another configuration in
	// the same package already emitted. Used to add e.g. the async
	// surface to an existing generated package without duplicating the
	// wire code.
	SurfacesOnly bool
	// Stats, when non-nil, collects the optimizer counters of every
	// stub compiled in this run (the `flick -stats` report).
	Stats *Stats
	// Verify selects how much stage-boundary verification runs on each
	// post-optimize MIR program. The zero value is verify.On.
	Verify verify.Mode
	// ZeroCopy routes prover-approved byte regions through the
	// runtime's alias paths: marshal-side PutBytesZC (vectored send)
	// and decode-side AliasNext (arena-borrowed views). Only regions
	// whose MIR alias proof survives the zerocopy verifier are emitted
	// this way; requires the memcpy optimization (there is no bulk op
	// to alias without it).
	ZeroCopy bool
}

// Stats aggregates compiler-side optimization counters for one
// generation run: per-stub mir counters plus their total. It is what
// `flick -stats` prints — the paper's §3 optimizations (grouped space
// checks, chunks, bulk copies, inlining) as observable numbers.
type Stats struct {
	Total mir.Stats
	Stubs []StubStats
	// Verify accumulates the stage-boundary verifier coverage counters
	// (MINT nodes, PRES-C stubs, MIR programs and chunk layouts checked).
	Verify verify.Counters
}

// StubStats is one stub's optimizer counters (all of its marshal and
// unmarshal programs: request, reply, exceptions).
type StubStats struct {
	Stub string
	S    mir.Stats
}

// Report renders an aligned per-stub table with a total row, then why
// the slab_fallback sites of the run kept their per-datum allocation.
func (s *Stats) Report() string {
	var b strings.Builder
	rows := make([][2]string, 0, len(s.Stubs)+1)
	line := func(name string, st mir.Stats) {
		rows = append(rows, [2]string{name, fmt.Sprintf(
			"%5d  %6d → %-5d %9d  %6d %6d %5d %5d  %4d  %10d %19d",
			st.Programs, st.SpaceChecksBefore, st.SpaceChecksAfter,
			st.SpaceChecksEliminated(), st.Chunks, st.ChunkItems,
			st.BulkArrays, st.InlinedAggregates, st.OutOfLineSubs,
			st.SlabSites, st.SlabFallbackSites())})
	}
	for _, st := range s.Stubs {
		line(st.Stub, st.S)
	}
	line("TOTAL", s.Total)
	width := len("stub")
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	fmt.Fprintf(&b, "%-*s  %5s  %14s %9s  %6s %6s %5s %5s  %4s  %10s %19s\n",
		width, "stub", "progs", "checks in→out", "hoisted", "chunks", "items", "bulk", "inl", "subs",
		"slab_sites", "slab_fallback_sites")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", width, r[0], r[1])
	}
	fmt.Fprintf(&b, "slab_fallback_sites by reason: %d lone value, %d variable non-byte data in the region, %d recursive sub\n",
		s.Total.SlabFallbackLone, s.Total.SlabFallbackVariable, s.Total.SlabFallbackRecursive)
	return b.String()
}

func (c Config) options() mir.Options {
	if c.Opts != nil {
		return *c.Opts
	}
	if c.Style == StyleFlick {
		return mir.AllOptimizations()
	}
	return mir.NoOptimizations()
}

// Generate renders the presentation as one Go source file.
func Generate(f *presc.File, cfg Config) (string, error) {
	if cfg.ZeroCopy && !cfg.options().Memcpy {
		return "", fmt.Errorf("gostub: -zerocopy requires the memcpy optimization (no bulk regions to alias without it)")
	}
	e := &emitter{
		cfg:      cfg,
		big:      cfg.Format.Order() == wire.BigEndian,
		checked:  cfg.Style != StyleFlick,
		vtbl:     cfg.Style == StylePowerRPC,
		zc:       cfg.ZeroCopy,
		subs:     backend.Subs{},
		borrowed: map[string][]string{},
	}
	e.b = &e.body
	// Parameter management is a Go-stub concern (C unmarshals in place),
	// and the baselines model compilers that allocate per datum. Arena
	// views under -zerocopy already have their storage.
	e.params = !e.checked && cfg.options().Params
	e.low = backend.Lowering{
		Format: cfg.Format, Opts: cfg.options(), Verify: cfg.Verify,
		PlanStorage: e.params, Skip: e.zcAliasDecode, VerifyAlias: true,
	}
	if cfg.Stats != nil {
		e.low.Counters = &cfg.Stats.Verify
	}
	return e.file(f)
}

type emitter struct {
	cfg     Config
	big     bool
	checked bool
	vtbl    bool

	// zc emits the zero-copy call shapes (PutBytesZC / AliasNext) for
	// regions carrying a verifier-approved alias-safe proof.
	zc bool
	// params manages unmarshaled parameter storage: the message slab,
	// and lent in-parameter arrays for //flick:borrow operations.
	params bool

	// low lowers, plans and verifies each message's program (the kit's
	// sequence); subs schedules the out-of-line routines.
	low  backend.Lowering
	subs backend.Subs

	// b is where pf writes: body (stub functions, then the RPC shells) or
	// subBuf (out-of-line routines, which close the file) — whichever the
	// function being emitted belongs to.
	b            *strings.Builder
	body, subBuf strings.Builder
	tmp          int
	// fn is the generated function being emitted.
	fn *function
	// borrowed records, per unmarshal function name, the roots whose
	// decoded value holds an arena view (-zerocopy only) or lent
	// in-parameter storage: the dispatch arm ends the borrow of a
	// request's, the server interface names them.
	borrowed map[string][]string

	usesBinary  bool
	usesMath    bool
	usesContext bool
}

// function is one generated marshal or unmarshal function: what frames
// its ops, and the state they resolve against while they are emitted.
// Nothing in it outlives the function.
type function struct {
	// head is the doc comment and the "func … {" line; prelude precedes
	// the ops; tail and then epilogue follow them, before the closing
	// brace.
	head, prelude, tail string
	epilogue            func() error
	// prog is the program whose ops are being emitted (sub-call names,
	// the storage plan); ops is all of it, or one of its subprograms.
	prog *mir.Program
	ops  []mir.Op
	// refMap rebinds ref roots (pointer-passed parameters, subprogram
	// "v", loop elements).
	refMap map[string]string
	// retErr is the statement sequence aborting the function on decoder
	// error.
	retErr string
	// lenVars maps a counted value's path to the local holding its
	// just-decoded element count (unmarshal only).
	lenVars map[string]string
	// zcVals marks counted values whose decode-side bulk aliases the
	// receive arena, so their length items skip the make (unmarshal
	// only, -zerocopy only).
	zcVals map[string]bool
	// lend names the roots whose array storage comes from rt.Borrow
	// instead of make (a //flick:borrow request unmarshal).
	lend map[string]bool
}

// pf writes one or more lines of generated code. Layout is gofmt's
// business: file() formats the whole text, which is also the check that
// it parses.
func (e *emitter) pf(format string, args ...any) {
	fmt.Fprintf(e.b, format, args...)
	e.b.WriteByte('\n')
}

// p writes already formatted lines of generated code.
func (e *emitter) p(text string) {
	e.b.WriteString(text)
	e.b.WriteByte('\n')
}

// unless aborts the function being emitted when cond does not hold.
func (e *emitter) unless(cond string, args ...any) {
	e.b.WriteString("if !")
	fmt.Fprintf(e.b, cond, args...)
	e.p(" {\n" + e.fn.retErr + "\n}")
}

func (e *emitter) ord() string {
	if e.big {
		return "BE"
	}
	return "LE"
}

func (e *emitter) binOrd() string {
	if e.big {
		return "binary.BigEndian"
	}
	return "binary.LittleEndian"
}

func (e *emitter) newTmp(prefix string) string {
	e.tmp++
	return fmt.Sprintf("%s%d", prefix, e.tmp)
}

// file drives whole-file generation.
func (e *emitter) file(f *presc.File) (string, error) {
	// Generate stub bodies first so import usage is known. In
	// surfaces-only mode the marshal core already exists elsewhere in
	// the package; only the surface shells are rendered.
	if !e.cfg.SurfacesOnly {
		for _, stub := range f.Stubs {
			if err := e.stubFuncs(stub); err != nil {
				return "", fmt.Errorf("gostub: stub %s: %w", stub.Name, err)
			}
		}
	}
	if e.cfg.EmitRPC {
		// Client stubs and server dispatch, one set per interface.
		for _, iface := range backend.Interfaces(f) {
			e.rpcFuncs(iface.Name, iface.Stubs)
		}
	}

	var out strings.Builder
	out.WriteString("// Code generated by flick (" + e.cfg.Style.String() + "/" +
		e.cfg.Format.Name() + "). DO NOT EDIT.\n\n")
	out.WriteString("package " + e.cfg.Package + "\n\n")
	out.WriteString("import (\n")
	if e.usesContext {
		out.WriteString("\t\"context\"\n")
	}
	if e.usesBinary {
		out.WriteString("\t\"encoding/binary\"\n")
	}
	if e.usesMath {
		out.WriteString("\t\"math\"\n")
	}
	out.WriteString("\n\t\"flick/rt\"\n)\n\n")
	if !e.cfg.SkipDecls && !e.cfg.SurfacesOnly {
		out.WriteString("// ObjectKey is an opaque object reference.\ntype ObjectKey = []byte\n\n")
		if decls, ok := f.Decls.(string); ok {
			out.WriteString(decls)
		}
	}
	out.WriteString(e.body.String())
	out.WriteString(e.subBuf.String())
	formatted, err := format.Source([]byte(out.String()))
	if err != nil {
		// A formatting failure means the emitter produced invalid Go;
		// surface the raw text for diagnosis.
		return out.String(), fmt.Errorf("gostub: generated code does not parse: %w", err)
	}
	return string(formatted), nil
}

// stubPrefix builds the generated function name prefix for a stub.
func stubPrefix(s *presc.Stub) string {
	return strings.ReplaceAll(s.Name, "_", "")
}

func (e *emitter) stubFuncs(s *presc.Stub) error {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix

	if e.cfg.Stats != nil {
		// Collect this stub's optimizer counters in a private sink, then
		// fold them into the run-wide report when the stub is done.
		per := &mir.Stats{}
		saved := e.low.Opts.Stats
		e.low.Opts.Stats = per
		defer func() {
			e.low.Opts.Stats = saved
			e.cfg.Stats.Stubs = append(e.cfg.Stats.Stubs, StubStats{Stub: s.Name, S: *per})
			e.cfg.Stats.Total.Add(*per)
		}()
	}

	reqRoots := backend.Roots(s, false)
	if err := e.marshalFunc("Marshal"+prefix+"Request", "", -1, reqRoots); err != nil {
		return err
	}
	// Request unmarshal (server side).
	if err := e.unmarshalFunc("Unmarshal"+prefix+"Request", reqRoots, nil, e.lendable(s)); err != nil {
		return err
	}

	if s.Stream {
		// Stream operations have no single reply: the result type is
		// the chunk, marshaled without a status word (chunks ride the
		// stream envelope, and stream errors travel as error frames,
		// not exception replies).
		chunkRoots := []mir.Root{{Name: "ret", Pres: s.Result.Reply}}
		if err := e.marshalFunc("Marshal"+prefix+"Chunk", "", -1, chunkRoots); err != nil {
			return err
		}
		return e.unmarshalFunc("Unmarshal"+prefix+"Chunk", chunkRoots, nil, nil)
	}
	if s.Oneway {
		return nil
	}

	// Reply marshal: status 0 + results; one more per exception, status
	// counting from 1.
	repRoots := backend.Roots(s, true)
	if err := e.marshalFunc("Marshal"+prefix+"Reply", "encodes a successful reply (status 0)", 0, repRoots); err != nil {
		return err
	}
	for i, exName := range s.ExceptionNames {
		err := e.marshalFunc("Marshal"+prefix+"Err"+strings.ReplaceAll(exName, "_", ""),
			fmt.Sprintf("encodes an exception reply (status %d)", i+1), i+1,
			[]mir.Root{{Name: "ex", Pres: s.ExceptionPres[i]}})
		if err != nil {
			return err
		}
	}
	// Reply unmarshal: status switch over results and exceptions.
	return e.unmarshalFunc("Unmarshal"+prefix+"Reply", repRoots, s, nil)
}

// lendable returns the request parameters of a //flick:borrow stub whose
// storage the runtime lends: in-only arrays of fixed-size atoms (or
// enums) presented as Go slices. Octet and char arrays are byte data,
// which the slab and the zero-copy path already manage; an inout
// parameter is not lent; nor is any request of a baseline style or with
// parameter management off.
func (e *emitter) lendable(s *presc.Stub) map[string]bool {
	if !s.Borrow || !e.params {
		return nil
	}
	lend := map[string]bool{}
	for _, p := range s.RequestParams() {
		n := p.Request.Resolve()
		if p.Role != presc.RoleRequest || n.Kind != pres.CountedKind || len(n.Children) != 1 {
			continue
		}
		if el := n.Elem().Resolve(); (el.Kind == pres.DirectKind || el.Kind == pres.EnumKind) &&
			ctypeOf(el) != "byte" && ctypeOf(n) == "[]"+ctypeOf(el) {
			lend[p.Name] = true
		}
	}
	return lend
}

func ctypeOf(n *pres.Node) string {
	if s, ok := n.Resolve().CType.(string); ok {
		return s
	}
	return "any"
}

// marshalFunc emits the function encoding roots, behind the reply status
// word when status is not negative. Aggregates pass by pointer, and
// nested ops (including out-of-line calls) address them through the
// deref spelling. An empty doc describes a message payload.
func (e *emitter) marshalFunc(name, doc string, status int, roots []mir.Root) error {
	prog, err := e.low.Program(name, mir.Marshal, roots)
	if err != nil {
		return err
	}
	params := []string{"e *rt.Encoder"}
	refs := map[string]string{}
	for _, r := range roots {
		star := ""
		if isAggregate(r.Pres) {
			star, refs[r.Name] = "*", "(*"+r.Name+")"
		}
		params = append(params, r.Name+" "+star+ctypeOf(r.Pres))
	}
	if doc == "" {
		doc = fmt.Sprintf("encodes the message payload (%s class, %s)", prog.Class, e.cfg.Format.Name())
	}
	f := &function{
		head: fmt.Sprintf("// %s %s.\nfunc %s(%s) {", name, doc, name, strings.Join(params, ", ")),
		prog: prog, refMap: refs,
	}
	switch {
	case status < 0:
	case e.checked:
		f.prelude = fmt.Sprintf("e.PutU32%sC(%d)", e.ord(), status)
	default:
		f.prelude = fmt.Sprintf("e.Grow(4)\ne.PutU32%s(%d)", e.ord(), status)
	}
	return e.stubFunc(f, mir.Marshal)
}

// unmarshalFunc emits the function decoding roots. With reply set it
// decodes s's whole reply: the status word first, then the roots on
// status 0 or the matching declared exception, returned as err. The
// arrays of the roots lend names take lent storage.
func (e *emitter) unmarshalFunc(name string, roots []mir.Root, reply *presc.Stub, lend map[string]bool) error {
	prog, err := e.low.Program(name, mir.Unmarshal, roots)
	if err != nil {
		return err
	}
	var results []string
	for _, r := range roots {
		results = append(results, r.Name+" "+ctypeOf(r.Pres))
	}
	e.borrowed[name] = e.borrowedRoots(prog, roots, lend)
	doc := fmt.Sprintf("decodes the message payload (%s class, %s)", prog.Class, e.cfg.Format.Name())
	f := &function{prog: prog, retErr: "err = d.Err()\nreturn", lend: lend}
	f.tail = f.retErr
	var exProgs []*mir.Program
	if reply != nil {
		doc = "decodes a reply: results on status 0, a declared\n// exception (returned as err) otherwise"
		for i, exName := range reply.ExceptionNames {
			exProg, err := e.low.Program(exName, mir.Unmarshal, []mir.Root{{Name: "ex", Pres: reply.ExceptionPres[i]}})
			if err != nil {
				return err
			}
			exProgs = append(exProgs, exProg)
		}
		if e.checked {
			f.prelude = fmt.Sprintf("st := d.U32%sC()", e.ord())
		} else {
			f.prelude = fmt.Sprintf("if !d.Ensure(4) {\n%s\n}\nst := d.U32%s()", f.retErr, e.ord())
		}
		f.prelude += "\nswitch st {\ncase 0:"
		f.epilogue = func() error {
			for i, exProg := range exProgs {
				e.pf("case %d:\nex := new(%s)", i+1, ctypeOf(reply.ExceptionPres[i]))
				if err := e.inline(exProg, "ex", "(*ex)"); err != nil {
					return err
				}
				e.pf("if d.Err() != nil {\n%s\n}\nerr = ex\nreturn", f.retErr)
			}
			e.pf("default:\nerr = d.Fail(rt.ErrBadUnion)\nreturn\n}")
			return nil
		}
	}
	f.head = fmt.Sprintf("// %s %s.\nfunc %s(d *rt.Decoder) (%s) {", name, doc, name, strings.Join(append(results, "err error"), ", "))
	if err := e.stubFunc(f, mir.Unmarshal); err != nil {
		return err
	}
	for _, exProg := range exProgs {
		if err := e.emitSubs(exProg, mir.Unmarshal); err != nil {
			return err
		}
	}
	return nil
}

// stubFunc emits f into the file body, then the out-of-line routines its
// program is the first to call.
func (e *emitter) stubFunc(f *function, dir mir.Dir) error {
	f.ops = f.prog.Ops
	if err := e.emitFunc(&e.body, f, dir); err != nil {
		return err
	}
	return e.emitSubs(f.prog, dir)
}

// emitFunc opens, fills and closes one generated function in out: the
// one place a function's state begins and ends.
func (e *emitter) emitFunc(out *strings.Builder, f *function, dir mir.Dir) error {
	outerFn, outerB := e.fn, e.b
	defer func() { e.fn, e.b = outerFn, outerB }()
	e.fn, e.b = f, out
	f.lenVars = map[string]string{}
	if e.zc {
		f.zcVals = map[string]bool{}
	}
	if f.refMap == nil {
		f.refMap = map[string]string{}
	}
	e.p(f.head)
	if f.prelude != "" {
		e.p(f.prelude)
	}
	if err := e.ops(f.ops, dir); err != nil {
		return err
	}
	if f.tail != "" {
		e.p(f.tail)
	}
	if f.epilogue != nil {
		if err := f.epilogue(); err != nil {
			return err
		}
	}
	e.p("}\n")
	return nil
}

// inline emits another program's ops into the function being emitted,
// with root bound to expr for their extent (a reply's exception arms).
func (e *emitter) inline(prog *mir.Program, root, expr string) error {
	outer := e.fn.prog
	e.fn.prog = prog
	saved := e.bindElem(root, expr)
	err := e.ops(prog.Ops, mir.Unmarshal)
	e.restoreElem(root, saved)
	e.fn.prog = outer
	return err
}

// emitSubs renders the out-of-line routines of a program into subBuf.
func (e *emitter) emitSubs(prog *mir.Program, dir mir.Dir) error {
	return e.subs.Each(prog, func(sub *mir.Sub) string { return e.subFuncName(sub, dir) },
		func(name string, sub *mir.Sub) error {
			f := &function{prog: prog, ops: sub.Ops, refMap: map[string]string{"v": "(*v)"}}
			if dir == mir.Marshal {
				f.head = fmt.Sprintf("func %s(e *rt.Encoder, v *%s) {", name, ctypeOf(sub.Pres))
			} else {
				f.head = fmt.Sprintf("func %s(d *rt.Decoder, v *%s) bool {", name, ctypeOf(sub.Pres))
				f.retErr, f.tail = "return false", "return d.Err() == nil"
			}
			return e.emitFunc(&e.subBuf, f, dir)
		})
}

func (e *emitter) subFuncName(sub *mir.Sub, dir mir.Dir) string {
	if dir == mir.Marshal {
		return "xm" + e.cfg.FuncSuffix + sub.Name
	}
	return "xu" + e.cfg.FuncSuffix + sub.Name
}
