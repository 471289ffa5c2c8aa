package gostub

import (
	"fmt"
	"strings"

	"flick/internal/mir"
	"flick/internal/wire"
)

// refExpr renders a mir value path as a Go expression.
func (e *emitter) refExpr(r mir.Ref) string {
	switch r := r.(type) {
	case *mir.Param:
		if m, ok := e.fn.refMap[r.Name]; ok {
			return m
		}
		return r.Name
	case *mir.Field:
		return e.refExpr(r.Base) + "." + r.Name
	case *mir.Elem:
		if m, ok := e.fn.refMap[r.Var]; ok {
			return m
		}
		return r.Var
	case *mir.Len:
		return "len(" + e.refExpr(r.Base) + ")"
	case *mir.Deref:
		return "(*" + e.refExpr(r.Base) + ")"
	default:
		panic(fmt.Sprintf("gostub: unknown ref %T", r))
	}
}

// countExpr renders the element count of a counted value: the decoded
// length variable on the unmarshal side when one exists, len(x)
// otherwise.
func (e *emitter) countExpr(r mir.Ref, dir mir.Dir) string {
	if dir == mir.Unmarshal {
		if v, ok := e.fn.lenVars[r.String()]; ok {
			return v
		}
	}
	return "len(" + e.refExpr(r) + ")"
}

// convPut converts a presented value expression to the unsigned wire
// representation.
func (e *emitter) convPut(a wire.Atom, w int, src string) string {
	switch a.Kind {
	case wire.BoolAtom:
		if w == 1 {
			return "rt.B2U8(" + src + ")"
		}
		return "rt.B2U32(" + src + ")"
	case wire.Float:
		e.usesMath = true
		if a.Bits == 32 {
			return "math.Float32bits(" + src + ")"
		}
		return "math.Float64bits(" + src + ")"
	}
	switch w {
	case 1:
		return "byte(" + src + ")"
	case 2:
		return "uint16(" + src + ")"
	case 4:
		return "uint32(" + src + ")"
	default:
		return "uint64(" + src + ")"
	}
}

// putStmt emits one scalar write in the current style.
func (e *emitter) putStmt(a wire.Atom, w int, src string) string {
	v := e.convPut(a, w, src)
	suffix := e.ord()
	if w == 1 {
		suffix = ""
	}
	switch {
	case e.vtbl:
		return fmt.Sprintf("rt.Vtbl.P%d%s(e, %s)", w*8, suffix, v)
	case e.checked:
		return fmt.Sprintf("rt.NPutU%d%s(e, %s)", w*8, suffix, v)
	default:
		return fmt.Sprintf("e.PutU%d%s(%s)", w*8, suffix, v)
	}
}

// getRaw renders one scalar wire read in the current style.
func (e *emitter) getRaw(w int) string {
	suffix := e.ord()
	if w == 1 {
		suffix = ""
	}
	switch {
	case e.vtbl:
		return fmt.Sprintf("rt.Vtbl.G%d%s(d)", w*8, suffix)
	case e.checked:
		return fmt.Sprintf("rt.NGetU%d%s(d)", w*8, suffix)
	default:
		return fmt.Sprintf("d.U%d%s()", w*8, suffix)
	}
}

// convGet converts a raw wire read to the presented type.
func (e *emitter) convGet(a wire.Atom, ctype, raw string) string {
	switch a.Kind {
	case wire.BoolAtom:
		return raw + " != 0"
	case wire.Float:
		e.usesMath = true
		if a.Bits == 32 {
			return "math.Float32frombits(" + raw + ")"
		}
		return "math.Float64frombits(" + raw + ")"
	}
	if ctype == "" {
		ctype = goTypeForAtom(a)
	}
	return ctype + "(" + raw + ")"
}

func goTypeForAtom(a wire.Atom) string {
	prefix := "uint"
	if a.Kind == wire.SInt {
		prefix = "int"
	}
	if a.Kind == wire.CharAtom && a.Bits == 8 {
		return "byte"
	}
	return fmt.Sprintf("%s%d", prefix, a.Bits)
}

// ops emits an op list. In -zerocopy mode the decode-side alias bulks
// of the list are noted first, so the length items that precede them
// (as siblings in the same list) suppress their allocation: the
// storage arrives as an arena view from AliasNext instead.
func (e *emitter) ops(ops []mir.Op, dir mir.Dir) error {
	if e.zc && dir == mir.Unmarshal {
		for _, op := range ops {
			if b, ok := op.(*mir.Bulk); ok && e.zcAliasDecode(b) {
				e.fn.zcVals[b.Val.String()] = true
			}
		}
	}
	for _, op := range ops {
		if plan := e.fn.prog.Slab; plan != nil && op == plan.At {
			e.provisionSlab(plan)
		}
		if err := e.op(op, dir); err != nil {
			return err
		}
	}
	return nil
}

// provisionSlab emits the message's one storage allocation (see
// mir.PlanStorage): everything unread except the static minimum of what
// is not string or byte-sequence payload.
func (e *emitter) provisionSlab(plan *mir.SlabPlan) {
	fixed := fmt.Sprintf("%d", plan.Tail)
	if plan.Count != nil && plan.PerElem > 0 {
		fixed = fmt.Sprintf("%d*%s", plan.PerElem, e.countExpr(plan.Count, mir.Unmarshal))
		if plan.Tail > 0 {
			fixed += fmt.Sprintf(" + %d", plan.Tail)
		}
	}
	e.pf("d.Slab(%s)", fixed)
}

// zcBulk reports whether op's region takes the zero-copy path: the
// emitter is in -zerocopy mode and the region carries a prover-signed
// alias-safe proof (which the zerocopy verifier re-derived before
// emission ran — the emitter never trusts an unverified proof).
func (e *emitter) zcBulk(op *mir.Bulk) bool {
	return e.zc && op.Alias != nil && op.Alias.Class == mir.AliasSafe
}

// zcAliasDecode reports whether op decodes as an arena-borrowed view
// (the exact predicate bulk() uses to choose AliasNext, so the
// make-suppression above can never disagree with the emission).
func (e *emitter) zcAliasDecode(op *mir.Bulk) bool {
	return e.zcBulk(op) && op.ElemWire == 1 && op.Atom.Kind != wire.BoolAtom &&
		op.Count < 0 && ctypeOfBulk(op) != "string"
}

// borrowedRoots returns, in root order, the names of the roots whose
// decoded value holds an arena view: a zcAliasDecode bulk addresses
// them, directly or through a loop element, an optional, a union arm or
// a subprogram.
func (e *emitter) borrowedRoots(prog *mir.Program, roots []mir.Root) []string {
	if !e.zc {
		return nil
	}
	rootOf := func(r mir.Ref, env map[string]string) string {
		for {
			switch x := r.(type) {
			case *mir.Param:
				return x.Name
			case *mir.Elem:
				return env[x.Var]
			case *mir.Field:
				r = x.Base
			case *mir.Len:
				r = x.Base
			case *mir.Deref:
				r = x.Base
			default:
				return ""
			}
		}
	}
	marked := map[string]bool{}
	// subViews[i]: subprogram i decodes a view, itself or through a
	// subprogram it calls (a fixpoint, below: subprograms recurse).
	subViews := make([]bool, len(prog.Subs))
	// walk reports whether ops decode a view, marking the root of each
	// (env maps loop variables to their root; a subprogram's own refs
	// name no root, its call site's argument does).
	var walk func(ops []mir.Op, env map[string]string, top bool) bool
	walk = func(ops []mir.Op, env map[string]string, top bool) bool {
		found := false
		see := func(r mir.Ref) {
			found = true
			if top {
				marked[rootOf(r, env)] = true
			}
		}
		for _, op := range ops {
			switch op := op.(type) {
			case *mir.Bulk:
				if e.zcAliasDecode(op) {
					see(op.Val)
				}
			case *mir.Loop:
				inner := map[string]string{op.Var: rootOf(op.Over, env)}
				for k, v := range env {
					inner[k] = v
				}
				found = walk(op.Body, inner, top) || found
			case *mir.Opt, *mir.Switch:
				mir.Bodies(op, func(body *[]mir.Op) { found = walk(*body, env, top) || found })
			case *mir.CallSub:
				if subViews[op.Sub] {
					see(op.Arg)
				}
			}
		}
		return found
	}
	for changed := true; changed; {
		changed = false
		for i, sub := range prog.Subs {
			if !subViews[i] && walk(sub.Ops, nil, false) {
				subViews[i], changed = true, true
			}
		}
	}
	walk(prog.Ops, nil, true)
	var out []string
	for _, r := range roots {
		if marked[r.Name] {
			out = append(out, r.Name)
		}
	}
	return out
}

func (e *emitter) op(op mir.Op, dir mir.Dir) error {
	switch op := op.(type) {
	case *mir.Ensure:
		if e.checked {
			return nil // baselines test space per datum inside the runtime calls
		}
		if dir == mir.Marshal {
			e.pf("e.Grow(%d)", op.Bytes)
		} else {
			e.unless("d.Ensure(%d)", op.Bytes)
		}
	case *mir.EnsureDyn:
		if e.checked {
			return nil
		}
		count := e.countExpr(op.Count, dir)
		if dir == mir.Marshal {
			e.pf("e.GrowDyn(%d, %d, %s)", op.Base, op.PerElem, count)
		} else {
			e.unless("d.EnsureDyn(%d, %d, %s)", op.Base, op.PerElem, count)
		}
	case *mir.Align:
		if dir == mir.Marshal {
			e.pf("e.Align(%d)", op.N)
		} else {
			e.pf("d.Align(%d)", op.N)
		}
	case *mir.Item:
		x := e.refExpr(op.Val)
		if dir == mir.Marshal {
			e.p(e.putStmt(op.Atom, op.Wire, x))
		} else {
			ct := ""
			if op.Pres != nil {
				ct = ctypeOf(op.Pres)
			}
			e.pf("%s = %s", x, e.convGet(op.Atom, ct, e.getRaw(op.Wire)))
		}
	case *mir.ConstItem:
		if dir == mir.Marshal {
			e.p(e.putConst(op.Atom, op.Wire, op.Value))
		} else {
			e.unless("d.CheckConst(uint64(%s), %d)", e.getRaw(op.Wire), op.Value)
		}
	case *mir.LenItem:
		return e.lenItem(op, dir)
	case *mir.Bulk:
		return e.bulk(op, dir)
	case *mir.Loop:
		return e.loop(op, dir)
	case *mir.Opt:
		return e.opt(op, dir)
	case *mir.Switch:
		return e.swtch(op, dir)
	case *mir.Chunk:
		return e.chunk(op, dir)
	case *mir.CallSub:
		name := e.subFuncName(e.fn.prog.Subs[op.Sub], dir)
		arg := e.subArg(op.Arg)
		if dir == mir.Marshal {
			e.pf("%s(e, %s)", name, arg)
		} else {
			e.unless("%s(d, %s)", name, arg)
		}
	default:
		return fmt.Errorf("gostub: unknown op %T", op)
	}
	return nil
}

// putConst writes a literal protocol value.
func (e *emitter) putConst(a wire.Atom, w int, v uint64) string {
	suffix := e.ord()
	if w == 1 {
		suffix = ""
	}
	switch {
	case e.vtbl:
		return fmt.Sprintf("rt.Vtbl.P%d%s(e, %d)", w*8, suffix, v)
	case e.checked:
		return fmt.Sprintf("rt.NPutU%d%s(e, %d)", w*8, suffix, v)
	default:
		return fmt.Sprintf("e.PutU%d%s(%d)", w*8, suffix, v)
	}
}

// subArg renders the address-of expression handed to an out-of-line
// routine.
func (e *emitter) subArg(r mir.Ref) string {
	if d, ok := r.(*mir.Deref); ok {
		return e.refExpr(d.Base)
	}
	return "&" + e.refExpr(r)
}

func (e *emitter) lenItem(op *mir.LenItem, dir mir.Dir) error {
	x := e.refExpr(op.Val)
	ct := ""
	if op.Pres != nil {
		ct = ctypeOf(op.Pres)
	}
	bounded := op.Bound > 0 && op.Bound < uint64(0xFFFFFFFF)
	if dir == mir.Marshal {
		if bounded {
			e.pf("rt.CheckBound(len(%s), %d)", x, op.Bound)
		}
		src := fmt.Sprintf("uint32(len(%s))", x)
		if op.Nul {
			src = fmt.Sprintf("uint32(len(%s)+1)", x)
		}
		suffix := e.ord()
		switch {
		case e.vtbl:
			e.pf("rt.Vtbl.P32%s(e, %s)", suffix, src)
		case e.checked:
			e.pf("rt.NPutU32%s(e, %s)", suffix, src)
		default:
			e.pf("e.PutU32%s(%s)", suffix, src)
		}
		return nil
	}
	// Unmarshal: read + validate + allocate.
	n := e.newTmp("n")
	ok := e.newTmp("ok")
	bound := uint64(0)
	if bounded {
		bound = op.Bound
	}
	if e.checked {
		e.unless("d.Ensure(4)")
	}
	e.pf("%s, %s := d.Len(rt.%s, %d, %v, %d)", n, ok, e.ord(), bound, op.Nul, op.ElemMin)
	e.unless(ok)
	e.fn.lenVars[op.Val.String()] = n
	e.allocCounted(op.Val, ct, n, op.Slab)
	return nil
}

// allocCounted emits the storage for a just-counted slice value x of
// type ct: nothing when the bulk that follows aliases the receive arena
// (AliasNext supplies the storage), a slab window for a planned byte
// sequence, a make otherwise. Strings get theirs at the payload op.
func (e *emitter) allocCounted(val mir.Ref, ct, n string, slab bool) {
	if !strings.HasPrefix(ct, "[]") && ct != "ObjectKey" {
		return
	}
	x := e.refExpr(val)
	switch {
	case e.zc && e.fn.zcVals[val.String()]:
	case slab && ct == "[]byte":
		e.pf("%s = d.SlabBytes(%s)", x, n)
	case slab:
		e.pf("%s = %s(d.SlabBytes(%s))", x, ct, n)
	default:
		e.pf("%s = make(%s, %s)", x, ct, n)
	}
}

func (e *emitter) bulk(op *mir.Bulk, dir mir.Dir) error {
	over := ctypeOfBulk(op)
	x := e.refExpr(op.Val)
	countExpr := ""
	fixed := op.Count >= 0
	if fixed {
		countExpr = fmt.Sprintf("%d", op.Count)
	} else {
		countExpr = e.countExpr(op.Val, dir)
	}
	byteWide := op.ElemWire == 1 && op.Atom.Kind != wire.BoolAtom

	if dir == mir.Marshal {
		switch {
		case over == "string":
			e.pf("e.PutString(%s)", x)
		case byteWide && e.zcBulk(op):
			// Prover-signed alias-safe region: sent by reference
			// (vectored) when it clears the runtime threshold.
			e.pf("e.PutBytesZC(%s)", sliceExprOrSelf(over, x))
		case byteWide:
			e.pf("e.PutBytes(%s)", sliceExprOrSelf(over, x))
		case op.Atom.Kind == wire.BoolAtom:
			e.pf("rt.PutSliceBool(e.Next(%d*%s), %s, %d, rt.%s)",
				op.ElemWire, countExpr, sliceExprOrSelf(over, x), op.ElemWire, e.ord())
		default:
			e.pf("rt.%s(e.Next(%d*%s), %s)",
				e.bulkHelper("Put", op), op.ElemWire, countExpr, sliceExprOrSelf(over, x))
		}
		return nil
	}
	// Unmarshal.
	switch {
	case over == "string":
		n, okLen := e.fn.lenVars[op.Val.String()]
		if !okLen {
			return fmt.Errorf("gostub: bulk string read without preceding length for %s", x)
		}
		if op.Slab {
			e.pf("%s = d.NextString(%s)", x, n)
		} else {
			e.pf("%s = string(d.Next(%s))", x, n)
		}
	case byteWide && e.zcAliasDecode(op):
		// Prover-signed alias-safe region: borrow a view of the receive
		// arena instead of allocating and copying. The preceding length
		// item skipped its make for exactly this value.
		view := fmt.Sprintf("d.AliasNext(%s)", e.countExpr(op.Val, dir))
		if over != "" && over != "[]byte" {
			view = over + "(" + view + ")"
		}
		e.pf("%s = %s", x, view)
	case byteWide:
		if fixed {
			e.pf("copy(%s[:], d.Next(%d))", x, op.Count)
		} else {
			e.pf("copy(%s, d.Next(len(%s)))", x, x)
		}
	case op.Atom.Kind == wire.BoolAtom:
		e.pf("rt.GetSliceBool(%s, d.Next(%d*%s), %d, rt.%s)",
			sliceExprOrSelf(over, x), op.ElemWire, lenOfTarget(fixed, countExpr, x), op.ElemWire, e.ord())
	default:
		e.pf("rt.%s(%s, d.Next(%d*%s))",
			e.bulkHelper("Get", op), sliceExprOrSelf(over, x), op.ElemWire, lenOfTarget(fixed, countExpr, x))
	}
	return nil
}

func lenOfTarget(fixed bool, countExpr, x string) string {
	if fixed {
		return countExpr
	}
	return "len(" + x + ")"
}

// sliceExprOrSelf appends [:] for fixed-array targets.
func sliceExprOrSelf(overCType, x string) string {
	if strings.HasPrefix(overCType, "[") && !strings.HasPrefix(overCType, "[]") {
		return x + "[:]"
	}
	return x
}

func ctypeOfBulk(op *mir.Bulk) string {
	if op.OverPres != nil {
		if s, ok := op.OverPres.Resolve().CType.(string); ok {
			return s
		}
	}
	return ""
}

func (e *emitter) bulkHelper(dirName string, op *mir.Bulk) string {
	if op.Atom.Kind == wire.Float {
		return fmt.Sprintf("%sSliceF%d%s", dirName, op.Atom.Bits, e.ord())
	}
	return fmt.Sprintf("%sSlice%d%s", dirName, op.ElemWire*8, e.ord())
}

func (e *emitter) loop(op *mir.Loop, dir mir.Dir) error {
	over := e.refExpr(op.Over)
	overCT := ""
	if op.OverPres != nil {
		overCT = ctypeOf(op.OverPres)
	}
	iv := "i" + strings.TrimPrefix(op.Var, "e")

	// Unmarshal into a Go string: decode through a byte scratch.
	if dir == mir.Unmarshal && overCT == "string" {
		n, okLen := e.fn.lenVars[op.Over.String()]
		if !okLen {
			return fmt.Errorf("gostub: string loop read without preceding length for %s", over)
		}
		// A planned string decodes straight into its slab window and
		// becomes a string in place; otherwise through a scratch copy.
		scratch := e.newTmp("b")
		alloc, conv := "make([]byte, %s)", "string(%s)"
		if op.Slab {
			alloc, conv = "d.SlabBytes(%s)", "d.SlabString(%s)"
		}
		e.pf("%s := "+alloc, scratch, n)
		e.pf("for %s := range %s {", iv, scratch)
		if err := e.elemOps(op, scratch+"["+iv+"]", dir); err != nil {
			return err
		}
		e.pf("}\n%s = "+conv, over, scratch)
		return nil
	}

	e.pf("for %s := 0; %s < len(%s); %s++ {", iv, iv, over, iv)
	if err := e.elemOps(op, over+"["+iv+"]", dir); err != nil {
		return err
	}
	e.pf("}")
	return nil
}

// elemOps emits a loop's body with its element variable bound to expr.
func (e *emitter) elemOps(op *mir.Loop, expr string, dir mir.Dir) error {
	saved := e.bindElem(op.Var, expr)
	defer e.restoreElem(op.Var, saved)
	return e.ops(op.Body, dir)
}

func (e *emitter) bindElem(v, expr string) (old string) {
	old = e.fn.refMap[v]
	e.fn.refMap[v] = expr
	return old
}

func (e *emitter) restoreElem(v, old string) {
	if old == "" {
		delete(e.fn.refMap, v)
	} else {
		e.fn.refMap[v] = old
	}
}

func (e *emitter) opt(op *mir.Opt, dir mir.Dir) error {
	x := e.refExpr(op.Val)
	if dir == mir.Marshal {
		e.pf("if %s != nil {\n%s", x, e.putConst(wire.Bool, op.Wire, 1))
		if err := e.ops(op.Body, dir); err != nil {
			return err
		}
		e.pf("} else {\n%s\n}", e.putConst(wire.Bool, op.Wire, 0))
		return nil
	}
	elemType := strings.TrimPrefix(ctypeOf(op.Pres), "*")
	e.pf("if %s != 0 {\n%s = new(%s)", e.getRaw(op.Wire), x, elemType)
	if err := e.ops(op.Body, dir); err != nil {
		return err
	}
	e.pf("} else {\n%s = nil\n}", x)
	return nil
}

func (e *emitter) swtch(op *mir.Switch, dir mir.Dir) error {
	on := e.refExpr(op.On)
	isBool := op.Atom.Kind == wire.BoolAtom
	if dir == mir.Marshal {
		e.p(e.putStmt(op.Atom, op.Wire, on))
	} else {
		ct := ""
		if op.Pres != nil {
			if s, ok := op.Pres.DiscrimCType.(string); ok {
				ct = s
			}
		}
		e.pf("%s = %s", on, e.convGet(op.Atom, ct, e.getRaw(op.Wire)))
	}
	e.pf("switch %s {", on)
	for _, c := range op.Cases {
		labels := make([]string, len(c.Values))
		for i, v := range c.Values {
			if isBool {
				if v == 0 {
					labels[i] = "false"
				} else {
					labels[i] = "true"
				}
			} else {
				labels[i] = fmt.Sprintf("%d", v)
			}
		}
		e.pf("case %s:", strings.Join(labels, ", "))
		if err := e.ops(c.Body, dir); err != nil {
			return err
		}
	}
	e.pf("default:")
	switch {
	case op.HasDefault:
		if err := e.ops(op.Default, dir); err != nil {
			return err
		}
	case dir == mir.Marshal:
		e.pf("panic(\"flick: unknown union discriminator\")")
	default:
		e.pf("d.Fail(rt.ErrBadUnion)\n%s", e.fn.retErr)
	}
	e.pf("}")
	return nil
}

func (e *emitter) chunk(op *mir.Chunk, dir mir.Dir) error {
	e.usesBinary = true
	b := e.newTmp("b")
	if dir == mir.Marshal {
		e.pf("%s := e.Next(%d)", b, op.Size)
		for _, it := range op.Items {
			if err := e.chunkPut(b, it); err != nil {
				return err
			}
		}
		return nil
	}
	e.pf("%s := d.Next(%d)", b, op.Size)
	for _, it := range op.Items {
		if err := e.chunkGet(b, it); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitter) chunkPut(b string, it mir.ChunkItem) error {
	window := fmt.Sprintf("%s[%d:]", b, it.Off)
	switch {
	case it.Const != nil:
		e.p(e.binPut(window, b, it, fmt.Sprintf("%d", *it.Const)))
	case it.IsLen:
		x := e.refExpr(it.Val)
		if it.Bound > 0 && it.Bound < uint64(0xFFFFFFFF) {
			e.pf("rt.CheckBound(len(%s), %d)", x, it.Bound)
		}
		src := fmt.Sprintf("uint32(len(%s))", x)
		if it.Nul {
			src = fmt.Sprintf("uint32(len(%s)+1)", x)
		}
		e.p(e.binPut(window, b, it, src))
	default:
		v := e.convPut(it.Atom, it.Wire, e.refExpr(it.Val))
		e.p(e.binPut(window, b, it, v))
	}
	return nil
}

func (e *emitter) binPut(window, b string, it mir.ChunkItem, v string) string {
	switch it.Wire {
	case 1:
		return fmt.Sprintf("%s[%d] = %s", b, it.Off, v)
	case 2:
		return fmt.Sprintf("%s.PutUint16(%s, %s)", e.binOrd(), window, v)
	case 4:
		return fmt.Sprintf("%s.PutUint32(%s, %s)", e.binOrd(), window, v)
	default:
		return fmt.Sprintf("%s.PutUint64(%s, %s)", e.binOrd(), window, v)
	}
}

func (e *emitter) binGet(b string, it mir.ChunkItem) string {
	window := fmt.Sprintf("%s[%d:]", b, it.Off)
	switch it.Wire {
	case 1:
		return fmt.Sprintf("%s[%d]", b, it.Off)
	case 2:
		return fmt.Sprintf("%s.Uint16(%s)", e.binOrd(), window)
	case 4:
		return fmt.Sprintf("%s.Uint32(%s)", e.binOrd(), window)
	default:
		return fmt.Sprintf("%s.Uint64(%s)", e.binOrd(), window)
	}
}

func (e *emitter) chunkGet(b string, it mir.ChunkItem) error {
	raw := e.binGet(b, it)
	switch {
	case it.Const != nil:
		e.unless("d.CheckConst(uint64(%s), %d)", raw, *it.Const)
	case it.IsLen:
		ct := ""
		if it.Pres != nil {
			ct = ctypeOf(it.Pres)
		}
		n := e.newTmp("n")
		ok := e.newTmp("ok")
		bound := uint64(0)
		if it.Bound > 0 && it.Bound < uint64(0xFFFFFFFF) {
			bound = it.Bound
		}
		e.pf("%s, %s := d.CheckLen(%s, %d, %v, %d)", n, ok, raw, bound, it.Nul, it.ElemMin)
		e.unless(ok)
		e.fn.lenVars[it.Val.String()] = n
		e.allocCounted(it.Val, ct, n, it.Slab)
	default:
		ct := ""
		if it.Pres != nil {
			ct = ctypeOf(it.Pres)
		}
		e.pf("%s = %s", e.refExpr(it.Val), e.convGet(it.Atom, ct, raw))
	}
	return nil
}
