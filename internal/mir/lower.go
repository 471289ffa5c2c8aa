package mir

import (
	"fmt"

	"flick/internal/mint"
	"flick/internal/pres"
	"flick/internal/wire"
)

// Lower compiles the PRES trees of a message payload into a marshal or
// unmarshal program for the given wire format, then runs the optimizer
// passes enabled in opts.
//
// The generated program assumes the payload begins at an offset aligned
// to the format's MaxAlign (back ends arrange message headers so this
// holds).
func Lower(dir Dir, roots []Root, f wire.Format, opts Options) (*Program, error) {
	lo := &lowerer{
		dir:      dir,
		f:        f,
		opts:     opts,
		subIndex: map[*pres.Node]int{},
		active:   map[*pres.Node]int{},
	}
	cur := &cursor{known: true, off: 0, guar: f.MaxAlign()}
	var ops []Op
	for i, r := range roots {
		o, err := lo.lowerNode(r.Pres, &Param{Name: r.Name, Index: i}, cur)
		if err != nil {
			return nil, err
		}
		ops = append(ops, o...)
	}
	prog := &Program{Dir: dir, Ops: ops, Subs: lo.subs}
	classify(prog, roots, f)
	if cur.known {
		// The lowering cursor gives the exact encoded size of fully
		// static payloads (classify's estimate includes pad slack).
		prog.FixedBytes = cur.off
	}
	optimize(prog, f, opts)
	return prog, nil
}

type cursor struct {
	// known: the absolute payload offset is statically known to be off.
	known bool
	off   int
	// guar: when !known, the offset is guaranteed ≡ 0 (mod guar).
	guar int
}

func (c *cursor) reset() { c.known = false; c.guar = 1 }

type lowerer struct {
	dir  Dir
	f    wire.Format
	opts Options
	// subs accumulates out-of-line routines; subIndex maps the defining
	// PRES node to its slot; active marks nodes currently being lowered
	// inline (to cut recursion).
	subs     []*Sub
	subIndex map[*pres.Node]int
	active   map[*pres.Node]int
	loopSeq  int
}

// align emits the padding op (if any) needed before an item with the
// given alignment and updates the cursor.
func (lo *lowerer) align(cur *cursor, a int, out *[]Op) {
	if a <= 1 {
		return
	}
	if cur.known {
		pad := (a - cur.off%a) % a
		if pad > 0 {
			*out = append(*out, &Align{N: a})
			cur.off += pad
		}
		return
	}
	if cur.guar >= a {
		return
	}
	*out = append(*out, &Align{N: a})
	cur.guar = a
}

// advance updates the cursor after size bytes were produced.
func (lo *lowerer) advance(cur *cursor, size int) {
	if cur.known {
		cur.off += size
		return
	}
	cur.guar = gcd(cur.guar, size)
}

func gcd(a, b int) int {
	if a < 1 {
		a = 1
	}
	if b < 1 {
		b = 1
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// atomOf extracts the wire atom behind an atomic MINT node. ok=false for
// non-atomic nodes.
func atomOf(m mint.Type) (a wire.Atom, constVal *uint64, ok bool) {
	switch m := mint.Deref(m).(type) {
	case *mint.Integer:
		bits, signed := m.Bits()
		k := wire.UInt
		if signed {
			k = wire.SInt
		}
		if m.Range == 0 {
			v := uint64(m.Min)
			return wire.Atom{Kind: k, Bits: 32}, &v, true
		}
		return wire.Atom{Kind: k, Bits: bits}, nil, true
	case *mint.Scalar:
		switch m.Kind {
		case mint.Boolean:
			return wire.Bool, nil, true
		case mint.Char8:
			return wire.Char, nil, true
		case mint.Float32:
			return wire.F32, nil, true
		case mint.Float64:
			return wire.F64, nil, true
		}
	case *mint.Const:
		a, _, ok := atomOf(m.Of)
		if !ok {
			return wire.Atom{}, nil, false
		}
		v := uint64(m.Value)
		return a, &v, true
	}
	return wire.Atom{}, nil, false
}

func (lo *lowerer) lowerNode(n *pres.Node, val Ref, cur *cursor) ([]Op, error) {
	n = n.Resolve() // RefKind handled by outlining below

	// Recursive or non-inlined aggregates go out of line.
	if lo.shouldOutline(n) {
		idx, err := lo.outline(n)
		if err != nil {
			return nil, err
		}
		// Unknown buffer position follows an out-of-line call.
		cur.reset()
		return []Op{&CallSub{Sub: idx, Arg: val}}, nil
	}
	if lo.opts.Stats != nil {
		switch n.Kind {
		case pres.StructKind, pres.UnionKind:
			// An aggregate expanded in place: the inlining optimization.
			lo.opts.Stats.InlinedAggregates++
		}
	}
	return lo.lowerNodeBody(n, val, cur)
}

// lowerNodeBody compiles n in place, without the out-of-line check (the
// entry point for both inline expansion and subprogram bodies).
func (lo *lowerer) lowerNodeBody(n *pres.Node, val Ref, cur *cursor) ([]Op, error) {
	var out []Op
	switch n.Kind {
	case pres.VoidKind:
		return nil, nil

	case pres.DirectKind, pres.EnumKind:
		a, cv, ok := atomOf(n.Mint)
		if !ok {
			return nil, fmt.Errorf("mir: %s node over non-atomic mint %s", n.Kind, n.Mint)
		}
		w := lo.f.WireSize(a)
		lo.align(cur, lo.f.Align(a), &out)
		out = append(out, &Ensure{Bytes: w})
		if cv != nil {
			out = append(out, &ConstItem{Atom: a, Wire: w, Value: *cv})
		} else {
			out = append(out, &Item{Atom: a, Wire: w, Val: val, Pres: n})
		}
		lo.advance(cur, w)
		return out, nil

	case pres.CountedKind, pres.TerminatedKind:
		return lo.lowerCounted(n, val, cur)

	case pres.FixedArrayKind:
		arr := mint.Deref(n.Mint).(*mint.Array)
		count := int(arr.FixedLen())
		return lo.lowerArrayPayload(n, val, cur, count, nil)

	case pres.StructKind:
		lo.active[n]++
		defer func() { lo.active[n]-- }()
		for i, child := range n.Children {
			fieldRef := &Field{Base: val, Name: n.FieldNames[i], Index: i}
			o, err := lo.lowerNode(child, fieldRef, cur)
			if err != nil {
				return nil, err
			}
			out = append(out, o...)
		}
		return out, nil

	case pres.UnionKind:
		return lo.lowerUnion(n, val, cur)

	case pres.OptPtrKind:
		lo.active[n]++
		defer func() { lo.active[n]-- }()
		w := lo.f.WireSize(wire.Bool)
		lo.align(cur, lo.f.Align(wire.Bool), &out)
		out = append(out, &Ensure{Bytes: w})
		lo.advance(cur, w)
		// The body starts at unknown alignment only in formats where
		// the flag leaves it misaligned; track through a copy.
		inner := *cur
		body, err := lo.lowerNode(n.Elem(), &Deref{Base: val}, &inner)
		if err != nil {
			return nil, err
		}
		out = append(out, &Opt{Val: val, Wire: w, Body: body, Pres: n})
		// After an optional region the cursor is data-dependent.
		lo.mergeCursor(cur, &inner)
		return out, nil

	default:
		return nil, fmt.Errorf("mir: unhandled pres kind %s", n.Kind)
	}
}

// mergeCursor merges a branch cursor into the main cursor: the main path
// may or may not have taken the branch, so only common guarantees remain.
func (lo *lowerer) mergeCursor(cur, branch *cursor) {
	if cur.known && branch.known && cur.off == branch.off {
		return
	}
	g := 1
	if cur.known && branch.known {
		d := branch.off - cur.off
		if d < 0 {
			d = -d
		}
		g = gcd(gcd(cur.off, branch.off), d)
		if g == 0 {
			g = lo.f.MaxAlign()
		}
	}
	cur.known = false
	if g < 1 {
		g = 1
	}
	cur.guar = g
}

func (lo *lowerer) lowerCounted(n *pres.Node, val Ref, cur *cursor) ([]Op, error) {
	lo.active[n]++
	defer func() { lo.active[n]-- }()
	arr, ok := mint.Deref(n.Mint).(*mint.Array)
	if !ok {
		return nil, fmt.Errorf("mir: counted node over %s", n.Mint)
	}
	var out []Op
	w := lo.f.LenSize()
	lenAtom := wire.U32
	lo.align(cur, lo.f.Align(lenAtom), &out)
	out = append(out, &Ensure{Bytes: w})
	nul := lo.f.StringNul() && isCharArray(arr)
	out = append(out, &LenItem{Wire: w, Val: val, Bound: arr.Length.Range, Nul: nul, Pres: n})
	lo.advance(cur, w)
	payload, err := lo.lowerArrayPayload(n, val, cur, -1, arr)
	if err != nil {
		return nil, err
	}
	out = append(out, payload...)
	if nul {
		out = append(out, &Ensure{Bytes: 1}, &ConstItem{Atom: wire.Char, Wire: 1, Value: 0})
		lo.advance(cur, 1)
	}
	return out, nil
}

func isCharArray(arr *mint.Array) bool {
	s, ok := mint.Deref(arr.Elem).(*mint.Scalar)
	return ok && s.Kind == mint.Char8
}

func isByteArray(arr *mint.Array) bool {
	if isCharArray(arr) {
		return true
	}
	i, ok := mint.Deref(arr.Elem).(*mint.Integer)
	if !ok {
		return false
	}
	bits, _ := i.Bits()
	return bits == 8
}

// lowerArrayPayload emits the element transfer for a fixed (count ≥ 0) or
// counted (count < 0, arr != nil) array.
func (lo *lowerer) lowerArrayPayload(n *pres.Node, val Ref, cur *cursor, count int, arr *mint.Array) ([]Op, error) {
	elem := n.Elem()
	var out []Op
	ea, eConst, isAtom := atomOf(elem.Resolve().Mint)
	ew := 0
	packed := false
	if isAtom {
		ew = lo.f.ArrayElemSize(ea)
		packed = ew != lo.f.WireSize(ea)
	}
	pad := 0
	if isAtom && ew == 1 {
		pad = lo.f.ArrayPad()
		if pad <= 1 {
			pad = 0
		}
	}

	// Element loop. Each iteration starts at an alignment we compute
	// conservatively; the optimizer may convert the loop to a Bulk.
	lo.loopSeq++
	loopVar := fmt.Sprintf("e%d", lo.loopSeq)
	var body []Op
	bodyCur := &cursor{known: false, guar: 1}
	if isAtom && eConst == nil {
		// Atomic elements: build the per-element transfer directly so
		// packed array encodings (XDR opaque) use the packed width.
		body = []Op{
			&Ensure{Bytes: ew},
			&Item{Atom: ea, Wire: ew, Val: &Elem{Var: loopVar}, Pres: elem.Resolve()},
		}
		bodyCur.guar = ew
	} else {
		// For fixed-size elements whose layout is naturally aligned
		// (a trial lowering from an aligned origin emits no padding),
		// the loop provably preserves alignment g = gcd(entry, stride)
		// when g covers every internal requirement. This kills the
		// conservative per-item Align ops inside struct loops.
		if stride, maxA, natural := lo.elemStride(elem); natural {
			entry := cur.guar
			if cur.known {
				entry = lo.f.MaxAlign()
				for entry > 1 && cur.off%entry != 0 {
					entry /= 2
				}
			}
			if g := gcd(entry, stride); g >= maxA {
				bodyCur.guar = g
			}
		}
		var err error
		body, err = lo.lowerNode(elem, &Elem{Var: loopVar}, bodyCur)
		if err != nil {
			return nil, err
		}
	}
	// Pre-loop alignment: align to the element's first requirement.
	if isAtom && !packed {
		lo.align(cur, lo.f.Align(ea), &out)
	}
	out = append(out, &Loop{Over: val, Var: loopVar, Count: count, Body: body, ElemPres: elem.Resolve(), OverPres: n})
	if pad > 0 {
		out = append(out, &Align{N: pad})
	}
	// After a dynamic payload the offset is data-dependent.
	if count >= 0 && cur.known && isAtom {
		lo.advance(cur, count*ew)
		if pad > 0 {
			lo.align(cur, pad, &out)
		}
	} else {
		cur.known = false
		g := bodyCur.guar
		if pad > 0 {
			g = maxInt(g, pad)
		}
		cur.guar = maxInt(1, g)
	}
	return out, nil
}

// elemStride trial-lowers an element type from an aligned origin. It
// reports the element's constant encoded size, the largest alignment it
// requires, and whether its layout is "natural" (no padding was needed
// from the aligned origin and the size is statically known).
func (lo *lowerer) elemStride(elem *pres.Node) (stride, maxAlign int, ok bool) {
	topts := lo.opts
	topts.Stats = nil // trial lowering must not pollute the counters
	trial := &lowerer{
		dir:      lo.dir,
		f:        lo.f,
		opts:     topts,
		subIndex: map[*pres.Node]int{},
		active:   map[*pres.Node]int{},
	}
	cur := &cursor{known: true, off: 0, guar: lo.f.MaxAlign()}
	ops, err := trial.lowerNode(elem, &Param{Name: "t"}, cur)
	if err != nil || !cur.known || len(trial.subs) > 0 {
		return 0, 0, false
	}
	if hasAlign(ops) || hasDynamic(ops) {
		return 0, 0, false
	}
	return cur.off, maxAlignOf(ops, lo.f), true
}

func hasAlign(ops []Op) bool {
	found := false
	for _, op := range ops {
		_, found = op.(*Align)
		Bodies(op, func(body *[]Op) { found = found || hasAlign(*body) })
		if found {
			return true
		}
	}
	return false
}

// hasDynamic reports data-dependent size (loops with dynamic counts,
// optionals, unions): their strides vary, so no alignment is provable.
func hasDynamic(ops []Op) bool {
	for _, op := range ops {
		switch op := op.(type) {
		case *Opt, *Switch, *LenItem, *EnsureDyn, *CallSub:
			return true
		case *Loop:
			if op.Count < 0 || hasDynamic(op.Body) {
				return true
			}
		}
	}
	return false
}

func maxAlignOf(ops []Op, f wire.Format) int {
	m := 1
	for _, op := range ops {
		switch op := op.(type) {
		case *Item:
			m = maxInt(m, f.Align(op.Atom))
		case *ConstItem:
			m = maxInt(m, f.Align(op.Atom))
		case *Loop:
			m = maxInt(m, maxAlignOf(op.Body, f))
		}
	}
	return m
}

func arrOf(n *pres.Node) *mint.Array {
	if a, ok := mint.Deref(n.Mint).(*mint.Array); ok {
		return a
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (lo *lowerer) lowerUnion(n *pres.Node, val Ref, cur *cursor) ([]Op, error) {
	lo.active[n]++
	defer func() { lo.active[n]-- }()
	u, ok := mint.Deref(n.Mint).(*mint.Union)
	if !ok {
		return nil, fmt.Errorf("mir: union node over %s", n.Mint)
	}
	da, _, ok := atomOf(u.Discrim)
	if !ok {
		return nil, fmt.Errorf("mir: union discriminator %s is not atomic", u.Discrim)
	}
	var out []Op
	w := lo.f.WireSize(da)
	lo.align(cur, lo.f.Align(da), &out)
	out = append(out, &Ensure{Bytes: w})
	lo.advance(cur, w)

	sw := &Switch{
		On:   &Field{Base: val, Name: "D", Index: -1},
		Atom: da,
		Wire: w,
		Pres: n,
	}
	// Group mint cases that share a child (multi-label arms were
	// duplicated during presentation generation).
	type armKey struct {
		child *pres.Node
		name  string
	}
	var arms []*SwitchCase
	armFor := map[armKey]*SwitchCase{}
	firstBranch := true
	var mergedCur cursor
	for i, c := range u.Cases {
		child := n.Children[i]
		name := ""
		if i < len(n.FieldNames) {
			name = n.FieldNames[i]
		}
		key := armKey{child, name}
		if arm, ok := armFor[key]; ok {
			arm.Values = append(arm.Values, c.Value)
			continue
		}
		branchCur := *cur
		var armVal Ref = val
		if name != "" {
			armVal = &Field{Base: val, Name: name, Index: i}
		}
		body, err := lo.lowerNode(child, armVal, &branchCur)
		if err != nil {
			return nil, err
		}
		arm := &SwitchCase{Values: []int64{c.Value}, Body: body}
		armFor[key] = arm
		arms = append(arms, arm)
		if firstBranch {
			mergedCur = branchCur
			firstBranch = false
		} else {
			lo.mergeCursor(&mergedCur, &branchCur)
		}
	}
	for _, a := range arms {
		sw.Cases = append(sw.Cases, *a)
	}
	if u.Default != nil {
		defIdx := len(u.Cases)
		var defChild *pres.Node
		var defName string
		if defIdx < len(n.Children) {
			defChild = n.Children[defIdx]
			if defIdx < len(n.FieldNames) {
				defName = n.FieldNames[defIdx]
			}
		}
		branchCur := *cur
		if defChild != nil {
			var armVal Ref = val
			if defName != "" {
				armVal = &Field{Base: val, Name: defName, Index: defIdx}
			}
			body, err := lo.lowerNode(defChild, armVal, &branchCur)
			if err != nil {
				return nil, err
			}
			sw.Default = body
		}
		sw.HasDefault = true
		if firstBranch {
			mergedCur = branchCur
			firstBranch = false
		} else {
			lo.mergeCursor(&mergedCur, &branchCur)
		}
	}
	if !firstBranch {
		*cur = mergedCur
	}
	out = append(out, sw)
	return out, nil
}

// shouldOutline reports whether node n must be compiled out of line:
// always for active (recursive) nodes, and for every named aggregate when
// inlining is disabled.
func (lo *lowerer) shouldOutline(n *pres.Node) bool {
	if lo.active[n] > 0 {
		return true
	}
	if _, already := lo.subIndex[n]; already {
		return true
	}
	if lo.opts.Inline {
		return false
	}
	switch n.Kind {
	case pres.StructKind, pres.UnionKind:
		return true
	case pres.CountedKind, pres.FixedArrayKind:
		// Named sequence/array typedefs get their own routines in
		// rpcgen; element type named-ness decides.
		e := n.Elem().Resolve()
		return e.Kind == pres.StructKind || e.Kind == pres.UnionKind
	}
	return false
}

// outline compiles n as an out-of-line subprogram and returns its index.
func (lo *lowerer) outline(n *pres.Node) (int, error) {
	if idx, ok := lo.subIndex[n]; ok {
		return idx, nil
	}
	idx := len(lo.subs)
	sub := &Sub{Name: subName(n, idx), Pres: n}
	lo.subs = append(lo.subs, sub)
	lo.subIndex[n] = idx
	if lo.opts.Stats != nil {
		lo.opts.Stats.OutOfLineSubs++
	}

	// Inside a subprogram nothing is known about buffer position. The
	// body compiles without the outline check (recursive inner
	// references hit subIndex and become CallSub ops).
	cur := &cursor{known: false, guar: 1}
	body, err := lo.lowerNodeBody(n, &Param{Name: "v", Index: 0}, cur)
	if err != nil {
		return 0, err
	}
	sub.Ops = body
	return idx, nil
}

func subName(n *pres.Node, idx int) string {
	if n.Name != "" {
		return n.Name
	}
	if s, ok := n.CType.(string); ok && s != "" {
		return sanitizeName(s)
	}
	return fmt.Sprintf("sub%d", idx)
}

func sanitizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		case r == '[':
			out = append(out, '_')
		case r == '*':
			out = append(out, 'P')
		}
	}
	if len(out) == 0 {
		return "t"
	}
	return string(out)
}
