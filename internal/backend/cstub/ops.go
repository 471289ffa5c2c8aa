package cstub

import (
	"fmt"
	"strings"

	"flick/internal/cast"
	"flick/internal/mir"
	"flick/internal/pres"
	"flick/internal/wire"
)

// refExpr renders a mir value path as a C expression; isPtr reports
// whether the expression denotes a pointer that member access must go
// through with ->.
func (e *emitter) refExpr(r mir.Ref) (cast.Expr, bool) {
	switch r := r.(type) {
	case *mir.Param:
		if e.ptrRoots[r.Name] {
			// Pointer-passed roots read as values through a deref;
			// member access through the pointer keeps the arrow form.
			return &cast.Ident{Name: r.Name}, true
		}
		return &cast.Ident{Name: r.Name}, false
	case *mir.Field:
		base, ptr := e.refExpr(r.Base)
		name := r.Name
		if r.Index == -1 {
			// Union discriminators present as _d in C.
			name = "_d"
		}
		// CORBA union arms spell as _u.<arm>.
		parts := strings.Split(name, ".")
		expr := cast.Expr(&cast.Member{Base: base, Name: parts[0], Arrow: ptr})
		for _, p := range parts[1:] {
			expr = &cast.Member{Base: expr, Name: p}
		}
		return expr, false
	case *mir.Elem:
		if x, ok := e.elemExpr[r.Var]; ok {
			return x, false
		}
		return &cast.Ident{Name: r.Var}, false
	case *mir.Deref:
		base, _ := e.refExpr(r.Base)
		return &cast.Unary{Op: "*", Operand: base}, false
	case *mir.Len:
		base, _ := e.refExpr(r.Base)
		return &cast.Call{Fn: &cast.Ident{Name: "strlen"}, Args: []cast.Expr{base}}, false
	default:
		panic(fmt.Sprintf("cstub: unknown ref %T", r))
	}
}

// countExpr renders the element count of an array-like value.
func (e *emitter) countExpr(val mir.Ref, n *pres.Node, dir mir.Dir) cast.Expr {
	if v, ok := e.lenVars[val.String()]; ok {
		return &cast.Ident{Name: v}
	}
	if n != nil {
		switch n.Resolve().Kind {
		case pres.CountedKind:
			base, ptr := e.refExpr(val)
			return &cast.Member{Base: base, Name: n.Resolve().LengthField, Arrow: ptr}
		case pres.TerminatedKind:
			return &cast.Call{Fn: &cast.Ident{Name: "strlen"}, Args: []cast.Expr{e.valueExpr(val)}}
		}
	}
	return &cast.Call{Fn: &cast.Ident{Name: "strlen"}, Args: []cast.Expr{e.valueExpr(val)}}
}

// bufExpr renders the element storage of an array-like value.
func (e *emitter) bufExpr(val mir.Ref, n *pres.Node) cast.Expr {
	if n != nil && n.Resolve().Kind == pres.CountedKind {
		base, ptr := e.refExpr(val)
		return &cast.Member{Base: base, Name: n.Resolve().BufferField, Arrow: ptr}
	}
	return e.valueExpr(val)
}

// valueExpr renders a ref as a value, dereferencing pointer roots.
func (e *emitter) valueExpr(r mir.Ref) cast.Expr {
	x, ptr := e.refExpr(r)
	if ptr {
		return &cast.Unary{Op: "*", Operand: x}
	}
	return x
}

func call(name string, args ...cast.Expr) cast.Stmt {
	return &cast.ExprStmt{E: &cast.Call{Fn: &cast.Ident{Name: name}, Args: args}}
}

func callE(name string, args ...cast.Expr) cast.Expr {
	return &cast.Call{Fn: &cast.Ident{Name: name}, Args: args}
}

var encIdent = &cast.Ident{Name: "_e"}
var decIdent = &cast.Ident{Name: "_d"}

// failWhen emits `if (cond) return -1;`, the decode paths' abort.
func failWhen(cond cast.Expr) cast.Stmt {
	return &cast.If{
		Cond: cond,
		Then: &cast.Block{Stmts: []cast.Stmt{&cast.Return{E: &cast.IntLit{Value: -1}}}},
	}
}

// failIf emits `if (!cond-is-ok) return -1;`.
func failIf(ok cast.Expr) cast.Stmt {
	return failWhen(&cast.Unary{Op: "!", Operand: ok})
}

func assign(l, r cast.Expr) cast.Stmt {
	return &cast.ExprStmt{E: &cast.Assign{Op: "=", L: l, R: r}}
}

func intLit(v int) cast.Expr { return &cast.IntLit{Value: int64(v)} }

// putName returns the streaming put runtime function for an atom.
func (e *emitter) putName(a wire.Atom, w int) string {
	if a.Kind == wire.Float {
		return fmt.Sprintf("flick_put_f%d%s", a.Bits, e.ord())
	}
	if w == 1 {
		return "flick_put_u8"
	}
	return fmt.Sprintf("flick_put_u%d%s", w*8, e.ord())
}

func (e *emitter) getName(a wire.Atom, w int) string {
	if a.Kind == wire.Float {
		return fmt.Sprintf("flick_get_f%d%s", a.Bits, e.ord())
	}
	if w == 1 {
		return "flick_get_u8"
	}
	return fmt.Sprintf("flick_get_u%d%s", w*8, e.ord())
}

// convPut wraps a presented value for the wire.
func (e *emitter) convPut(a wire.Atom, w int, x cast.Expr) cast.Expr {
	switch a.Kind {
	case wire.BoolAtom:
		return &cast.Ternary{Cond: x, Then: intLit(1), Else: intLit(0)}
	case wire.Float:
		return x
	}
	t := cast.Type(&cast.Prim{Name: fmt.Sprintf("uint%d_t", w*8)})
	return &cast.CastExpr{To: t, Operand: x}
}

// convGet converts a raw wire read to the presented type of n.
func convGet(a wire.Atom, n *pres.Node, raw cast.Expr) cast.Expr {
	if a.Kind == wire.BoolAtom {
		return &cast.Binary{Op: "!=", L: raw, R: intLit(0)}
	}
	if n != nil && a.Kind != wire.Float {
		if t, ok := n.Resolve().CType.(cast.Type); ok {
			return &cast.CastExpr{To: t, Operand: raw}
		}
	}
	return raw
}

func (e *emitter) ops(out *[]cast.Stmt, ops []mir.Op, dir mir.Dir) error {
	for _, op := range ops {
		if err := e.op(out, op, dir); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitter) op(out *[]cast.Stmt, op mir.Op, dir mir.Dir) error {
	switch op := op.(type) {
	case *mir.Ensure:
		if dir == mir.Marshal {
			*out = append(*out, call("flick_grow", encIdent, intLit(op.Bytes)))
		} else {
			*out = append(*out, failIf(callE("flick_dec_ensure", decIdent, intLit(op.Bytes))))
		}
	case *mir.EnsureDyn:
		count := e.countExpr(op.Count, op.Pres, dir)
		if dir == mir.Marshal {
			*out = append(*out, call("flick_grow_dyn", encIdent, intLit(op.Base), intLit(op.PerElem), count))
		} else {
			*out = append(*out, failIf(callE("flick_dec_ensure_dyn", decIdent, intLit(op.Base), intLit(op.PerElem), count)))
		}
	case *mir.Align:
		if dir == mir.Marshal {
			*out = append(*out, call("flick_enc_align", encIdent, intLit(op.N)))
		} else {
			*out = append(*out, failIf(callE("flick_dec_align", decIdent, intLit(op.N))))
		}
	case *mir.Item:
		x := e.valueExpr(op.Val)
		if dir == mir.Marshal {
			*out = append(*out, call(e.putName(op.Atom, op.Wire), encIdent, e.convPut(op.Atom, op.Wire, x)))
		} else {
			*out = append(*out, assign(x, convGet(op.Atom, op.Pres, callE(e.getName(op.Atom, op.Wire), decIdent))))
		}
	case *mir.ConstItem:
		if dir == mir.Marshal {
			*out = append(*out, call(e.putName(op.Atom, op.Wire), encIdent, &cast.UIntLit{Value: op.Value}))
		} else {
			raw := callE(e.getName(op.Atom, op.Wire), decIdent)
			*out = append(*out, failWhen(&cast.Binary{Op: "!=", L: raw, R: &cast.UIntLit{Value: op.Value}}))
		}
	case *mir.LenItem:
		return e.lenItem(out, op, dir)
	case *mir.Bulk:
		return e.bulk(out, op, dir)
	case *mir.Loop:
		return e.loop(out, op, dir)
	case *mir.Opt:
		return e.opt(out, op, dir)
	case *mir.Switch:
		return e.swtch(out, op, dir)
	case *mir.Chunk:
		return e.chunk(out, op, dir)
	case *mir.CallSub:
		name := subFuncName(e.curProg.Subs[op.Sub], dir)
		arg := e.subArg(op.Arg)
		if dir == mir.Marshal {
			*out = append(*out, call(name, encIdent, arg))
		} else {
			*out = append(*out, failWhen(&cast.Binary{Op: "!=", L: callE(name, decIdent, arg), R: intLit(0)}))
		}
	default:
		return fmt.Errorf("cstub: unknown op %T", op)
	}
	return nil
}

func (e *emitter) subArg(r mir.Ref) cast.Expr {
	if d, ok := r.(*mir.Deref); ok {
		base, _ := e.refExpr(d.Base)
		return base
	}
	if p, ok := r.(*mir.Param); ok && e.ptrRoots[p.Name] {
		return &cast.Ident{Name: p.Name}
	}
	x, _ := e.refExpr(r)
	return &cast.Unary{Op: "&", Operand: x}
}

// putCount renders the element count a marshaled length prefix carries,
// after its bound check. A string's strlen is cached in a local first:
// exactly the optimization the paper's alternate Mail_send presentation
// motivates.
func (e *emitter) putCount(out *[]cast.Stmt, val mir.Ref, n *pres.Node, bound uint64, nul bool) cast.Expr {
	var count cast.Expr
	if n.Kind == pres.TerminatedKind {
		tmp := e.newTmp("len")
		*out = append(*out, &cast.DeclStmt{
			Name: tmp, Type: &cast.Prim{Name: "uint32_t"},
			Init: &cast.CastExpr{To: &cast.Prim{Name: "uint32_t"}, Operand: callE("strlen", e.valueExpr(val))},
		})
		e.lenVars[val.String()] = tmp
		count = &cast.Ident{Name: tmp}
	} else {
		count = e.countExpr(val, n, mir.Marshal)
	}
	if b := lenBound(bound); b > 0 {
		*out = append(*out, call("FLICK_CHECK_BOUND", count, intLit(b)))
	}
	if nul {
		count = &cast.Binary{Op: "+", L: count, R: intLit(1)}
	}
	return count
}

// lenBound is the bound a length check enforces; 0 for unbounded.
func lenBound(bound uint64) int {
	if bound < uint64(0xFFFFFFFF) {
		return int(bound)
	}
	return 0
}

func flag(b bool) cast.Expr {
	if b {
		return intLit(1)
	}
	return intLit(0)
}

// allocCounted records tmp as the decoded count of val and obtains the
// storage its elements decode into.
func (e *emitter) allocCounted(out *[]cast.Stmt, val mir.Ref, n *pres.Node, tmp string) {
	e.lenVars[val.String()] = tmp
	count := &cast.Ident{Name: tmp}
	switch n.Kind {
	case pres.CountedKind:
		base, ptr := e.refExpr(val)
		*out = append(*out,
			assign(&cast.Member{Base: base, Name: n.LengthField, Arrow: ptr}, count),
			assign(&cast.Member{Base: base, Name: n.BufferField, Arrow: ptr},
				callE("flick_alloc", &cast.Binary{Op: "*", L: count, R: &cast.SizeofType{Of: cTypeOf(n.Elem())}})),
		)
	case pres.TerminatedKind:
		x := e.valueExpr(val)
		*out = append(*out,
			assign(x, callE("flick_alloc", &cast.Binary{Op: "+", L: count, R: intLit(1)})),
			assign(&cast.Index{Base: x, Index: count}, intLit(0)),
		)
	}
}

func (e *emitter) lenItem(out *[]cast.Stmt, op *mir.LenItem, dir mir.Dir) error {
	n := op.Pres.Resolve()
	if dir == mir.Marshal {
		count := e.putCount(out, op.Val, n, op.Bound, op.Nul)
		*out = append(*out, call(fmt.Sprintf("flick_put_u32%s", e.ord()), encIdent, count))
		return nil
	}
	// Unmarshal: read, validate, allocate.
	tmp := e.newTmp("n")
	*out = append(*out,
		&cast.DeclStmt{Name: tmp, Type: &cast.Prim{Name: "uint32_t"}},
		failIf(callE(fmt.Sprintf("flick_dec_len_%s", e.ord()), decIdent, intLit(lenBound(op.Bound)), flag(op.Nul),
			&cast.Unary{Op: "&", Operand: &cast.Ident{Name: tmp}})),
	)
	e.allocCounted(out, op.Val, n, tmp)
	return nil
}

func (e *emitter) bulk(out *[]cast.Stmt, op *mir.Bulk, dir mir.Dir) error {
	over := op.OverPres
	buf := e.bufExpr(op.Val, over)
	var count cast.Expr
	if op.Count >= 0 {
		count = intLit(op.Count)
	} else {
		count = e.countExpr(op.Val, over, dir)
	}
	var fn string
	var helperElem cast.Type
	byteWide := op.ElemWire == 1 && op.Atom.Kind != wire.BoolAtom
	switch {
	case byteWide:
		fn = "bytes"
	case op.Atom.Kind == wire.BoolAtom:
		fn = fmt.Sprintf("arrbool%d%s", op.ElemWire*8, e.ord())
		helperElem = &cast.Prim{Name: "uint8_t"}
	case op.Atom.Kind == wire.Float:
		fn = fmt.Sprintf("arrf%d%s", op.Atom.Bits, e.ord())
	default:
		fn = fmt.Sprintf("arr%d%s", op.ElemWire*8, e.ord())
		helperElem = &cast.Prim{Name: fmt.Sprintf("uint%d_t", op.ElemWire*8)}
	}
	if helperElem != nil {
		// The helpers take unsigned element pointers; presented arrays
		// may be signed or enum-typed.
		buf = &cast.CastExpr{To: cast.PtrTo(helperElem), Operand: buf}
	}
	if dir == mir.Marshal {
		*out = append(*out, call("flick_put_"+fn, encIdent, buf, count))
	} else {
		*out = append(*out, call("flick_get_"+fn, decIdent, buf, count))
	}
	return nil
}

func (e *emitter) loop(out *[]cast.Stmt, op *mir.Loop, dir mir.Dir) error {
	over := op.OverPres
	iv := "_i" + strings.TrimPrefix(op.Var, "e")
	var count cast.Expr
	if op.Count >= 0 {
		count = intLit(op.Count)
	} else {
		count = e.countExpr(op.Over, over, dir)
	}
	buf := e.bufExpr(op.Over, over)
	e.elemExpr[op.Var] = &cast.Index{Base: buf, Index: &cast.Ident{Name: iv}}
	var body []cast.Stmt
	if err := e.ops(&body, op.Body, dir); err != nil {
		return err
	}
	delete(e.elemExpr, op.Var)
	*out = append(*out, &cast.For{
		Init: &cast.DeclStmt{Name: iv, Type: &cast.Prim{Name: "uint32_t"}, Init: intLit(0)},
		Cond: &cast.Binary{Op: "<", L: &cast.Ident{Name: iv}, R: count},
		Post: &cast.Postfix{Operand: &cast.Ident{Name: iv}, Op: "++"},
		Body: &cast.Block{Stmts: body},
	})
	return nil
}

func (e *emitter) opt(out *[]cast.Stmt, op *mir.Opt, dir mir.Dir) error {
	x := e.valueExpr(op.Val)
	flagW := op.Wire
	if dir == mir.Marshal {
		var thenStmts []cast.Stmt
		thenStmts = append(thenStmts, call(e.putName(wire.Bool, flagW), encIdent, intLit(1)))
		if err := e.ops(&thenStmts, op.Body, dir); err != nil {
			return err
		}
		*out = append(*out, &cast.If{
			Cond: &cast.Binary{Op: "!=", L: x, R: &cast.Ident{Name: "NULL"}},
			Then: &cast.Block{Stmts: thenStmts},
			Else: &cast.Block{Stmts: []cast.Stmt{
				call(e.putName(wire.Bool, flagW), encIdent, intLit(0)),
			}},
		})
		return nil
	}
	elemT := cTypeOf(op.Pres.Resolve().Elem())
	var thenStmts []cast.Stmt
	thenStmts = append(thenStmts, assign(x, callE("flick_alloc", &cast.SizeofType{Of: elemT})))
	if err := e.ops(&thenStmts, op.Body, dir); err != nil {
		return err
	}
	*out = append(*out, &cast.If{
		Cond: callE(e.getName(wire.Bool, flagW), decIdent),
		Then: &cast.Block{Stmts: thenStmts},
		Else: &cast.Block{Stmts: []cast.Stmt{
			assign(x, &cast.Ident{Name: "NULL"}),
		}},
	})
	return nil
}

func (e *emitter) swtch(out *[]cast.Stmt, op *mir.Switch, dir mir.Dir) error {
	on := e.valueExpr(op.On)
	if dir == mir.Marshal {
		*out = append(*out, call(e.putName(op.Atom, op.Wire), encIdent, e.convPut(op.Atom, op.Wire, on)))
	} else {
		raw := callE(e.getName(op.Atom, op.Wire), decIdent)
		var rhs cast.Expr = raw
		if op.Pres != nil {
			if t, ok := op.Pres.DiscrimCType.(cast.Type); ok {
				rhs = &cast.CastExpr{To: t, Operand: raw}
			}
		}
		*out = append(*out, assign(on, rhs))
	}
	sw := &cast.Switch{On: on}
	for _, c := range op.Cases {
		var vals []cast.Expr
		for _, v := range c.Values {
			vals = append(vals, &cast.IntLit{Value: v})
		}
		var body []cast.Stmt
		if err := e.ops(&body, c.Body, dir); err != nil {
			return err
		}
		body = append(body, &cast.Break{})
		sw.Cases = append(sw.Cases, cast.SwitchCase{Values: vals, Body: body})
	}
	var def []cast.Stmt
	if op.HasDefault {
		if err := e.ops(&def, op.Default, dir); err != nil {
			return err
		}
		def = append(def, &cast.Break{})
	} else if dir == mir.Unmarshal {
		def = []cast.Stmt{&cast.Return{E: &cast.IntLit{Value: -1}}}
	} else {
		def = []cast.Stmt{call("flick_bad_union")}
	}
	sw.Cases = append(sw.Cases, cast.SwitchCase{Default: true, Body: def})
	*out = append(*out, sw)
	return nil
}

func (e *emitter) chunk(out *[]cast.Stmt, op *mir.Chunk, dir mir.Dir) error {
	b := e.newTmp("b")
	if dir == mir.Marshal {
		*out = append(*out, &cast.DeclStmt{
			Name: b, Type: cast.PtrTo(&cast.Prim{Name: "unsigned char"}),
			Init: callE("flick_enc_next", encIdent, intLit(op.Size)),
		})
	} else {
		*out = append(*out, &cast.DeclStmt{
			Name: b, Type: cast.PtrTo(&cast.Prim{Name: "unsigned char"}),
			Init: callE("flick_dec_next", decIdent, intLit(op.Size)),
		})
	}
	bID := &cast.Ident{Name: b}
	for _, it := range op.Items {
		if err := e.chunkItem(out, bID, it, dir); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitter) chunkMacro(prefix string, w int, a wire.Atom) string {
	if a.Kind == wire.Float {
		return fmt.Sprintf("FLICK_%s_F%d%s", prefix, a.Bits, e.ORD())
	}
	if w == 1 {
		return fmt.Sprintf("FLICK_%s_U8", prefix)
	}
	return fmt.Sprintf("FLICK_%s_U%d%s", prefix, w*8, e.ORD())
}

func (e *emitter) chunkItem(out *[]cast.Stmt, b cast.Expr, it mir.ChunkItem, dir mir.Dir) error {
	off := intLit(it.Off)
	if dir == mir.Marshal {
		switch {
		case it.Const != nil:
			*out = append(*out, call(e.chunkMacro("PUT", it.Wire, it.Atom), b, off, &cast.UIntLit{Value: *it.Const}))
		case it.IsLen:
			count := e.putCount(out, it.Val, it.Pres.Resolve(), it.Bound, it.Nul)
			*out = append(*out, call(e.chunkMacro("PUT", it.Wire, wire.U32), b, off, count))
		default:
			x := e.valueExpr(it.Val)
			*out = append(*out, call(e.chunkMacro("PUT", it.Wire, it.Atom), b, off, e.convPut(it.Atom, it.Wire, x)))
		}
		return nil
	}
	raw := callE(e.chunkMacro("GET", it.Wire, it.Atom), b, off)
	switch {
	case it.Const != nil:
		*out = append(*out, failWhen(&cast.Binary{Op: "!=", L: raw, R: &cast.UIntLit{Value: *it.Const}}))
	case it.IsLen:
		tmp := e.newTmp("n")
		*out = append(*out,
			&cast.DeclStmt{Name: tmp, Type: &cast.Prim{Name: "uint32_t"}, Init: raw},
			failIf(callE("flick_check_len", decIdent, &cast.Ident{Name: tmp}, intLit(lenBound(it.Bound)), flag(it.Nul),
				&cast.Unary{Op: "&", Operand: &cast.Ident{Name: tmp}})),
		)
		e.allocCounted(out, it.Val, it.Pres.Resolve(), tmp)
	default:
		*out = append(*out, assign(e.valueExpr(it.Val), convGet(it.Atom, it.Pres, raw)))
	}
	return nil
}
