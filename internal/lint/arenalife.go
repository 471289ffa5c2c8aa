package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ArenaLife enforces the arena-borrow contract on decode-side alias
// views. A slice obtained from Decoder.AliasNext aliases a pooled
// receive arena: its sanctioned lifetime is the decoder's borrow, and
// the one sanctioned way out is ownership transfer — a function that
// hands the view onward (returns it, writes it into the caller's out
// value) WITHOUT releasing the decoder, which is exactly the generated
// Unmarshal shape. Everything else defeats the contract:
//
//   - stored into a package-level variable — outlives every borrow;
//   - sent on a channel — handed to a goroutine with no lifetime
//     relationship to the borrow at all;
//   - stored into a field, deref, or composite value by a function
//     that also releases the decoder — the release declares the borrow
//     over, so the stored view outlives its own declared lifetime;
//   - returned by a function that releases the decoder — same
//     contradiction (either copy the bytes out before Release, or drop
//     the Release and transfer ownership);
//   - captured by a function literal that may run after Release;
//   - used after the decoder's Release in straight-line order.
//
// Decoder.EndBorrow ends a borrow exactly as Release does: it declares
// every view returned, so the receive buffer may recycle under one that
// was kept.
//
// The server side of the contract has no decoder in sight. A generated
// -zerocopy skeleton hands its work function arena views as plain
// []byte arguments and ends their borrow when it returns; the generated
// server interface names them in //flick:borrowed directives. A method
// implementing such an interface must not store its borrowed
// parameters (field, global, composite value), send them on a channel,
// or hand them to a goroutine; returning one is fine — the
// skeleton marshals the reply before the borrow ends — and so is
// copying the bytes out, which is how an implementation keeps them. The
// in-parameter arrays of an operation marked //flick:borrow, decoded
// into storage the runtime lends again after EndBorrow, are named and
// checked the same way, whatever their element type.
//
// The runtime backstops a view escaping past Release by pinning the
// aliased arena (an escaped view can never observe recycled bytes — it
// can only forfeit a buffer reuse, counted in
// ZeroCopyStats.ArenaPinned), so those findings are discipline bugs,
// not memory-safety holes: each one is a pin the code did not need to
// pay for. A view kept past EndBorrow — a handler retaining its
// argument — has no such backstop: the buffer recycles and the view
// reads another message's bytes (race builds poison it first).
//
// Like releasecheck, the analysis is flow-approximate: straight-line
// statement order inside blocks, branches independent — the shapes the
// stub generator emits.
var ArenaLife = &Analyzer{
	Name: "arenalife",
	Doc:  "arena-borrowed decode views must not escape their borrow",
	Run:  runArenaLife,
}

func runArenaLife(pass *Pass) error {
	borrows := borrowedParams(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncArenaViews(pass, fn)
			checkHandlerBorrows(pass, fn, borrows)
		}
	}
	return nil
}

// borrowedMethod is one //flick:borrowed directive resolved against its
// interface: the parameter positions of method name that arrive as
// arena views.
type borrowedMethod struct {
	iface  *types.Interface
	name   string
	params []int
}

// borrowedParams collects the //flick:borrowed directives on the
// interface declarations of the package under analysis and of the
// packages loaded beside it (pass.Borrowed: a directive lives in a doc
// comment, which export data does not carry).
func borrowedParams(pass *Pass) []borrowedMethod {
	var out []borrowedMethod
	resolve := func(scope *types.Scope, dirs []BorrowDirective) {
		for _, d := range dirs {
			tn, ok := scope.Lookup(d.Iface).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if m.Name() != d.Method {
					continue
				}
				sig := m.Type().(*types.Signature)
				bm := borrowedMethod{iface: iface, name: d.Method}
				for j := 0; j < sig.Params().Len(); j++ {
					for _, p := range d.Params {
						if sig.Params().At(j).Name() == p {
							bm.params = append(bm.params, j)
						}
					}
				}
				out = append(out, bm)
			}
		}
	}
	resolve(pass.Pkg.Scope(), BorrowDirectives(pass.Files))
	for _, imp := range pass.Pkg.Imports() {
		if dirs := pass.Borrowed[imp.Path()]; len(dirs) > 0 {
			resolve(imp.Scope(), dirs)
		}
	}
	return out
}

// BorrowDirective is one `//flick:borrowed Method param...` line of an
// interface declaration's doc comment.
type BorrowDirective struct {
	Iface, Method string
	Params        []string
}

// BorrowDirectives extracts the //flick:borrowed directives of files.
func BorrowDirectives(files []*ast.File) []BorrowDirective {
	var out []BorrowDirective
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if _, isIface := ts.Type.(*ast.InterfaceType); !isIface || doc == nil {
					continue
				}
				for _, c := range doc.List {
					f := strings.Fields(strings.TrimPrefix(c.Text, "//flick:borrowed "))
					if !strings.HasPrefix(c.Text, "//flick:borrowed ") || len(f) < 2 {
						continue
					}
					out = append(out, BorrowDirective{Iface: ts.Name.Name, Method: f[0], Params: f[1:]})
				}
			}
		}
	}
	return out
}

// checkHandlerBorrows applies the escape rules to fn's borrowed
// parameters when fn is a method implementing an interface method that
// carries a //flick:borrowed directive.
func checkHandlerBorrows(pass *Pass, fn *ast.FuncDecl, borrows []borrowedMethod) {
	if fn.Recv == nil || len(borrows) == 0 {
		return
	}
	obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	recv := obj.Type().(*types.Signature).Recv().Type()
	var params []*ast.Ident
	for _, field := range fn.Type.Params.List {
		params = append(params, field.Names...)
	}
	for _, b := range borrows {
		if b.name != fn.Name.Name || !types.Implements(recv, b.iface) {
			continue
		}
		for _, i := range b.params {
			if i >= len(params) || params[i].Name == "_" {
				continue
			}
			if p := pass.Info.Defs[params[i]]; p != nil {
				checkViewEscapes(pass, fn, arenaView{obj: p, pos: fn.Type, handler: true}, true)
			}
		}
	}
}

// arenaView is one alias-view binding within a function.
type arenaView struct {
	obj types.Object // the variable bound to the view
	dec types.Object // the decoder it borrows from (nil for a handler's parameter)
	pos ast.Node     // the acquiring statement
	// handler marks a borrowed parameter of a generated server
	// interface's implementation: its borrow ends when the method
	// returns, so returning it is the one thing the rules allow.
	handler bool
}

func checkFuncArenaViews(pass *Pass, fn *ast.FuncDecl) {
	// Which decoders does this function release? A release means the
	// borrow ends inside this frame, which arms the escape rules that
	// ownership transfer would otherwise sanction.
	released := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !endsBorrow(sel.Sel.Name) {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && isPtrToRT(obj.Type(), "Decoder") {
				released[obj] = true
			}
		}
		return true
	})

	var views []arenaView
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			dec, ok := aliasNextSource(pass, rhs)
			if !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if id.Name == "_" {
					continue
				}
				if isPkgLevel(pass, id) {
					pass.Reportf(as.Pos(), "arena view stored into package-level %s (it aliases a pooled receive buffer whose borrow ends at Release)", id.Name)
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj != nil {
					views = append(views, arenaView{obj: obj, dec: dec, pos: as})
				}
				continue
			}
			// The view is stored without ever being named.
			if escapingViewDest(pass, as.Lhs[i], released[dec]) {
				pass.Reportf(as.Pos(), "arena view stored into a field or global (it aliases a pooled receive buffer whose borrow ends at Release)")
			}
		}
		return true
	})

	for _, v := range views {
		checkViewEscapes(pass, fn, v, released[v.dec])
	}
}

// aliasNextSource reports whether expr is a Decoder.AliasNext call —
// possibly wrapped in a single-argument conversion, the shape named
// []byte presentations decode through — and returns the decoder.
func aliasNextSource(pass *Pass, expr ast.Expr) (types.Object, bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return aliasNextSource(pass, call.Args[0])
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "AliasNext" {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := pass.Info.Uses[id]
	if obj == nil || !isPtrToRT(obj.Type(), "Decoder") {
		return nil, false
	}
	return obj, true
}

// escapingViewDest reports whether storing a view into lhs escapes the
// borrow. Package-level destinations always do; fields, derefs, and
// indexed stores only when the borrow ends in this function (borrowEnds)
// — otherwise the store is the ownership-transfer shape (generated
// Unmarshal writing into the caller's out value).
func escapingViewDest(pass *Pass, lhs ast.Expr, borrowEnds bool) bool {
	switch l := lhs.(type) {
	case *ast.Ident:
		return isPkgLevel(pass, l)
	case *ast.SelectorExpr:
		return borrowEnds || isPkgLevel(pass, rootExpr(l.X))
	case *ast.StarExpr:
		return borrowEnds || isPkgLevel(pass, rootExpr(l.X))
	case *ast.IndexExpr:
		return borrowEnds || isPkgLevel(pass, rootExpr(l.X))
	}
	return false
}

// rootExpr strips selectors, derefs, and indexes down to the base
// expression.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

func checkViewEscapes(pass *Pass, fn *ast.FuncDecl, v arenaView, borrowEnds bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if usesView(pass, n.Value, v.obj) {
				pass.Reportf(n.Pos(), "arena view %s sent on a channel (the receiving goroutine has no lifetime relationship to the borrow)", v.obj.Name())
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if id, ok := rhs.(*ast.Ident); ok && pass.Info.Uses[id] == v.obj {
					if escapingViewDest(pass, n.Lhs[i], borrowEnds) {
						pass.Reportf(rhs.Pos(), "arena view %s stored into a field or global (it aliases a pooled receive buffer whose borrow ends at Release)", v.obj.Name())
					}
				}
			}
		case *ast.CompositeLit:
			if !borrowEnds {
				return true
			}
			for _, el := range n.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if id, ok := val.(*ast.Ident); ok && pass.Info.Uses[id] == v.obj {
					pass.Reportf(val.Pos(), "arena view %s stored into a composite value that outlives its borrow (the decoder is released in this function)", v.obj.Name())
				}
			}
		case *ast.ReturnStmt:
			if !borrowEnds || v.handler {
				return true
			}
			for _, r := range n.Results {
				if id, ok := r.(*ast.Ident); ok && pass.Info.Uses[id] == v.obj {
					pass.Reportf(id.Pos(), "arena view %s returned after its borrow ends (this function releases the decoder — copy the bytes out, or drop the Release to transfer ownership)", v.obj.Name())
				}
			}
		case *ast.GoStmt:
			if v.handler && usesView(pass, n.Call, v.obj) {
				pass.Reportf(n.Pos(), "arena view %s captured by a goroutine (it may run after the method returns and the borrow ends)", v.obj.Name())
				return false
			}
		case *ast.FuncLit:
			if v.handler {
				// A literal the method calls before it returns (a marshal
				// callback, a sort) runs inside the borrow; one that
				// outlives it is a go statement, above, or is stored.
				return true
			}
			if containsNode(n, v.pos) {
				// The acquisition lives inside this literal; it owns
				// the borrow.
				return true
			}
			if !borrowEnds {
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == v.obj {
					pass.Reportf(id.Pos(), "arena view %s captured by a function literal (the callback may run after the decoder's Release)", v.obj.Name())
				}
				return true
			})
			return false
		}
		return true
	})

	// Straight-line use-after-release: inside every block, statements
	// after an unconditional release of the view's decoder must not
	// touch the view again.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		releasedAt := -1
		for i, s := range block.List {
			if releasedAt >= 0 {
				reportViewUses(pass, s, v.obj)
				continue
			}
			if es, ok := s.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok && isBorrowEndOf(pass, call, v.dec) {
					releasedAt = i
				}
			}
		}
		return true
	})
}

// endsBorrow reports whether a Decoder method of this name ends the
// borrow of the views it handed out.
func endsBorrow(method string) bool { return method == "Release" || method == "EndBorrow" }

// isBorrowEndOf reports whether call is dec.Release() or dec.EndBorrow().
func isBorrowEndOf(pass *Pass, call *ast.CallExpr, dec types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || dec == nil || !endsBorrow(sel.Sel.Name) {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && pass.Info.Uses[id] == dec
}

// usesView reports whether expr references the view variable.
func usesView(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// reportViewUses flags every reference to the view inside stmt.
func reportViewUses(pass *Pass, stmt ast.Stmt, obj types.Object) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			pass.Reportf(id.Pos(), "use of arena view %s after the decoder's release (the arena may already carry another message's bytes)", obj.Name())
		}
		return true
	})
}
