package pgen

import (
	"fmt"
	"strings"

	"flick/internal/aoi"
	"flick/internal/mint"
	"flick/internal/pres"
	"flick/internal/presc"
)

// GoPresentation maps AOI onto Go: the presentation used by Flick-Go's
// runnable stubs. It plays the role the paper reserves for future C++ and
// Java presentations — CAST is simply replaced by Go type spellings.
type GoPresentation struct {
	mb *MintBuilder
	// nodes memoizes PRES trees per AOI type for recursion and sharing.
	nodes map[aoi.Type]*pres.Node
	// decls accumulates generated Go type declarations by name.
	decls map[string]string
	order []string
}

// NewGoPresentation returns a fresh generator.
func NewGoPresentation() *GoPresentation {
	return &GoPresentation{
		mb:    NewMintBuilder(),
		nodes: map[aoi.Type]*pres.Node{},
		decls: map[string]string{},
	}
}

// GenerateGo builds the Go presentation of every interface in f for the
// given side.
func GenerateGo(f *aoi.File, side presc.Side) (*presc.File, error) {
	g := NewGoPresentation()
	out := &presc.File{
		Name:         f.Source,
		Side:         side,
		Lang:         "go",
		Presentation: "go",
	}
	// Emit declarations for every named AOI type so users can construct
	// values even for types not reached by any operation.
	for _, td := range f.Types {
		if _, err := g.TypeFor(td.Type); err != nil {
			return nil, err
		}
	}
	for _, it := range f.Interfaces {
		stubs, err := g.interfaceStubs(it, side)
		if err != nil {
			return nil, err
		}
		out.Stubs = append(out.Stubs, stubs...)
	}
	out.Decls = g.DeclSource()
	if err := presc.Validate(out); err != nil {
		return nil, err
	}
	return out, nil
}

// DeclSource returns the generated Go type declarations in deterministic
// order.
func (g *GoPresentation) DeclSource() string {
	var b strings.Builder
	for _, n := range g.order {
		b.WriteString(g.decls[n])
		b.WriteString("\n")
	}
	return b.String()
}

func (g *GoPresentation) addDecl(name, src string) {
	if _, dup := g.decls[name]; dup {
		return
	}
	g.decls[name] = src
	g.order = append(g.order, name)
}

// TypeFor returns the Go type spelling for an AOI type, generating named
// declarations as a side effect.
func (g *GoPresentation) TypeFor(t aoi.Type) (string, error) {
	switch t := t.(type) {
	case *aoi.Primitive:
		return goPrim(t.Kind)
	case *aoi.String:
		return "string", nil
	case *aoi.Sequence:
		elem, err := g.TypeFor(t.Elem)
		if err != nil {
			return "", err
		}
		return "[]" + elem, nil
	case *aoi.Array:
		elem, err := g.TypeFor(t.Elem)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("[%d]%s", t.Length, elem), nil
	case *aoi.Struct:
		name := GoName(t.Name)
		if t.Name == "" {
			return "", fmt.Errorf("pgen: anonymous structs are not presentable in Go")
		}
		if _, done := g.decls[name]; done {
			return name, nil
		}
		// Reserve the name first for recursive bodies.
		g.addDecl(name, "")
		var b strings.Builder
		fmt.Fprintf(&b, "// %s presents IDL struct %s.\ntype %s struct {\n", name, t.Name, name)
		for _, f := range t.Fields {
			ft, err := g.TypeFor(f.Type)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "\t%s %s\n", GoField(f.Name), ft)
		}
		b.WriteString("}\n")
		g.decls[name] = b.String()
		return name, nil
	case *aoi.Union:
		name := GoName(t.Name)
		if t.Name == "" {
			return "", fmt.Errorf("pgen: anonymous unions are not presentable in Go")
		}
		if _, done := g.decls[name]; done {
			return name, nil
		}
		g.addDecl(name, "")
		dt, err := g.TypeFor(t.Discrim)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "// %s presents IDL union %s; D selects the active arm.\ntype %s struct {\n", name, t.Name, name)
		fmt.Fprintf(&b, "\tD %s\n", dt)
		for _, c := range t.Cases {
			if aoi.IsVoid(c.Field.Type) {
				continue
			}
			ft, err := g.TypeFor(c.Field.Type)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "\t%s %s\n", GoField(c.Field.Name), ft)
		}
		b.WriteString("}\n")
		g.decls[name] = b.String()
		return name, nil
	case *aoi.Enum:
		name := GoName(t.Name)
		if t.Name == "" {
			// Anonymous enums present as their underlying integer.
			return "uint32", nil
		}
		if _, done := g.decls[name]; done {
			return name, nil
		}
		var b strings.Builder
		fmt.Fprintf(&b, "// %s presents IDL enum %s.\ntype %s uint32\n\nconst (\n", name, t.Name, name)
		for i, m := range t.Members {
			fmt.Fprintf(&b, "\t%s%s %s = %d\n", name, GoField(m), name, t.Values[i])
		}
		b.WriteString(")\n")
		g.addDecl(name, b.String())
		return name, nil
	case *aoi.NamedRef:
		return g.TypeFor(t.Def)
	case *aoi.Optional:
		elem, err := g.TypeFor(t.Elem)
		if err != nil {
			return "", err
		}
		return "*" + elem, nil
	case *aoi.InterfaceRef:
		// Object references present as opaque object keys.
		return "ObjectKey", nil
	default:
		return "", fmt.Errorf("pgen: unknown AOI type %T", t)
	}
}

func goPrim(k aoi.PrimKind) (string, error) {
	switch k {
	case aoi.Void:
		return "", nil
	case aoi.Boolean:
		return "bool", nil
	case aoi.Octet:
		return "byte", nil
	case aoi.Char:
		return "byte", nil
	case aoi.Short:
		return "int16", nil
	case aoi.UShort:
		return "uint16", nil
	case aoi.Long:
		return "int32", nil
	case aoi.ULong:
		return "uint32", nil
	case aoi.LongLong:
		return "int64", nil
	case aoi.ULongLong:
		return "uint64", nil
	case aoi.Float:
		return "float32", nil
	case aoi.Double:
		return "float64", nil
	}
	return "", fmt.Errorf("pgen: unknown primitive %v", k)
}

// Node builds the PRES tree presenting AOI type t (whose MINT shape is
// m) as its Go type.
func (g *GoPresentation) Node(t aoi.Type) (*pres.Node, error) {
	if n, ok := g.nodes[t]; ok {
		return &pres.Node{Kind: pres.RefKind, Name: "ref", Target: n}, nil
	}
	m := g.mb.Convert(t)
	ct, err := g.TypeFor(t)
	if err != nil {
		return nil, err
	}
	switch t := t.(type) {
	case *aoi.Primitive:
		if t.Kind == aoi.Void {
			return &pres.Node{Kind: pres.VoidKind, Mint: m}, nil
		}
		return &pres.Node{Kind: pres.DirectKind, Mint: m, CType: ct}, nil
	case *aoi.Enum:
		return &pres.Node{Kind: pres.EnumKind, Mint: m, CType: ct}, nil
	case *aoi.String:
		// Go strings carry their length: counted presentation.
		return &pres.Node{
			Kind: pres.CountedKind, Mint: m, CType: ct,
			Children: []*pres.Node{{Kind: pres.DirectKind, Mint: mint.Char(), CType: "byte"}},
		}, nil
	case *aoi.Sequence:
		node := &pres.Node{Kind: pres.CountedKind, Mint: m, CType: ct}
		g.nodes[t] = node
		elem, err := g.Node(t.Elem)
		if err != nil {
			return nil, err
		}
		node.Children = []*pres.Node{elem}
		return node, nil
	case *aoi.Array:
		node := &pres.Node{Kind: pres.FixedArrayKind, Mint: m, CType: ct}
		g.nodes[t] = node
		elem, err := g.Node(t.Elem)
		if err != nil {
			return nil, err
		}
		node.Children = []*pres.Node{elem}
		return node, nil
	case *aoi.Struct:
		node := &pres.Node{Kind: pres.StructKind, Mint: m, CType: ct, Name: GoName(t.Name)}
		g.nodes[t] = node
		for _, f := range t.Fields {
			child, err := g.Node(f.Type)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
			node.FieldNames = append(node.FieldNames, GoField(f.Name))
		}
		return node, nil
	case *aoi.Union:
		node := &pres.Node{Kind: pres.UnionKind, Mint: m, CType: ct, Name: GoName(t.Name)}
		dt, err := g.TypeFor(t.Discrim)
		if err != nil {
			return nil, err
		}
		node.DiscrimCType = dt
		g.nodes[t] = node
		// Children parallel the MINT cases: one per label, then default.
		for _, c := range t.Cases {
			if c.IsDefault {
				continue
			}
			child, err := g.armNode(c.Field)
			if err != nil {
				return nil, err
			}
			for range c.Labels {
				node.Children = append(node.Children, child)
				node.FieldNames = append(node.FieldNames, armFieldName(c.Field))
			}
		}
		for _, c := range t.Cases {
			if !c.IsDefault {
				continue
			}
			child, err := g.armNode(c.Field)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
			node.FieldNames = append(node.FieldNames, armFieldName(c.Field))
		}
		return node, nil
	case *aoi.NamedRef:
		return g.Node(t.Def)
	case *aoi.Optional:
		node := &pres.Node{Kind: pres.OptPtrKind, Mint: m, CType: ct}
		g.nodes[t] = node
		elem, err := g.Node(t.Elem)
		if err != nil {
			return nil, err
		}
		node.Children = []*pres.Node{elem}
		return node, nil
	case *aoi.InterfaceRef:
		return &pres.Node{
			Kind: pres.CountedKind, Mint: m, CType: "ObjectKey",
			Children: []*pres.Node{{Kind: pres.DirectKind, Mint: mint.U8(), CType: "byte"}},
		}, nil
	default:
		return nil, fmt.Errorf("pgen: unknown AOI type %T", t)
	}
}

func armFieldName(f aoi.Field) string {
	if aoi.IsVoid(f.Type) {
		return ""
	}
	return GoField(f.Name)
}

func (g *GoPresentation) armNode(f aoi.Field) (*pres.Node, error) {
	if aoi.IsVoid(f.Type) {
		return &pres.Node{Kind: pres.VoidKind, Mint: mint.VoidT()}, nil
	}
	return g.Node(f.Type)
}

func (g *GoPresentation) interfaceStubs(it *aoi.Interface, side presc.Side) ([]*presc.Stub, error) {
	var stubs []*presc.Stub
	for _, op := range EffectiveOps(it) {
		stub, err := g.opStub(it, op, side)
		if err != nil {
			return nil, err
		}
		stubs = append(stubs, stub)
	}
	return stubs, nil
}

func (g *GoPresentation) opStub(it *aoi.Interface, op *aoi.Operation, side presc.Side) (*presc.Stub, error) {
	stub := g.mb.newStub(it, op, side, GoName(it.Name)+"_"+GoName(op.Name))
	for _, p := range op.Params {
		ct, err := g.TypeFor(p.Type)
		if err != nil {
			return nil, err
		}
		node, err := g.Node(p.Type)
		if err != nil {
			return nil, err
		}
		stub.Params = append(stub.Params, paramPres(goParamName(p.Name), p.Dir, ct, node))
	}
	if hasResult(op) {
		ct, err := g.TypeFor(op.Result)
		if err != nil {
			return nil, err
		}
		node, err := g.Node(op.Result)
		if err != nil {
			return nil, err
		}
		stub.Result = &presc.ParamPres{Name: "ret", CType: ct, Role: presc.RoleReply, Reply: node}
	}
	// Exception presentations, in raises order, for reply demarshaling.
	for _, exName := range op.Raises {
		ex := findExcept(it.Excepts, exName)
		if ex == nil {
			return nil, fmt.Errorf("pgen: %s.%s raises unknown exception %s", it.Name, op.Name, exName)
		}
		tn, err := g.exceptionDecl(it, ex)
		if err != nil {
			return nil, err
		}
		// Name the body struct so its GoName collides with the already
		// emitted exception type: no duplicate declaration is generated
		// and the PRES node presents the exception type itself.
		exStruct := &aoi.Struct{Name: it.Name + "::" + ex.Name, Fields: ex.Fields}
		node, err := g.Node(exStruct)
		if err != nil {
			return nil, err
		}
		node = node.Resolve()
		node.CType = tn
		node.Name = tn
		stub.ExceptionPres = append(stub.ExceptionPres, node)
	}
	stub.CDecl = g.signature(it, op)
	return stub, nil
}

// exceptionDecl generates the Go struct + error method for an exception.
func (g *GoPresentation) exceptionDecl(it *aoi.Interface, ex *aoi.Exception) (string, error) {
	name := GoName(it.Name) + GoName(ex.Name)
	if _, done := g.decls[name]; done {
		return name, nil
	}
	g.addDecl(name, "")
	var b strings.Builder
	fmt.Fprintf(&b, "// %s presents IDL exception %s::%s.\ntype %s struct {\n", name, it.Name, ex.Name, name)
	for _, f := range ex.Fields {
		ft, err := g.TypeFor(f.Type)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\t%s %s\n", GoField(f.Name), ft)
	}
	b.WriteString("}\n\n")
	fmt.Fprintf(&b, "// Error implements the error interface.\nfunc (e *%s) Error() string { return %q }\n", name, it.Name+"::"+ex.Name)
	g.decls[name] = b.String()
	return name, nil
}

// ExceptionTypeName returns the generated Go name of an exception.
func ExceptionTypeName(iface, exName string) string {
	return GoName(iface) + GoName(exName)
}

func goParamName(idl string) string {
	// Unexported parameter spelling; avoid Go keywords.
	switch idl {
	case "type", "func", "range", "map", "chan", "var", "const", "interface",
		"select", "case", "default", "defer", "go", "return", "package", "import",
		"switch", "break", "continue", "else", "fallthrough", "for", "goto", "if", "struct":
		return idl + "_"
	}
	return idl
}

func (g *GoPresentation) signature(it *aoi.Interface, op *aoi.Operation) string {
	var in, out []string
	for _, p := range op.Params {
		ct, _ := g.TypeFor(p.Type)
		switch p.Dir {
		case aoi.In:
			in = append(in, goParamName(p.Name)+" "+ct)
		case aoi.Out:
			out = append(out, goParamName(p.Name)+" "+ct)
		case aoi.InOut:
			// The returned (updated) value needs a distinct name from
			// the input parameter in the Go signature.
			in = append(in, goParamName(p.Name)+" "+ct)
			out = append(out, goParamName(p.Name)+"Out "+ct)
		}
	}
	if hasResult(op) {
		ct, _ := g.TypeFor(op.Result)
		out = append([]string{"ret " + ct}, out...)
	}
	out = append(out, "err error")
	return fmt.Sprintf("%s(%s) (%s)", GoName(op.Name), strings.Join(in, ", "), strings.Join(out, ", "))
}
