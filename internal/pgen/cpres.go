package pgen

import (
	"fmt"

	"flick/internal/aoi"
	"flick/internal/cast"
	"flick/internal/pres"
	"flick/internal/presc"
)

// CPresentation maps AOI onto C. Two mapping rule sets are provided,
// mirroring Flick's presentation generators:
//
//   - "corba": the OMG CORBA C language mapping (CORBA_long scalars,
//     sequence structs with _length/_buffer, char* strings, a
//     CORBA_Environment out-parameter, <Interface>_<op> stub names);
//   - "rpcgen": Sun's rpcgen mapping (<op>_<vers> stub names, argument
//     and result passed by pointer, CLIENT handle);
//   - "fluke": derived from the CORBA mapping with Fluke naming, the
//     way Flick's Fluke presentation derives from its CORBA library.
type CPresentation struct {
	style string
	mb    *MintBuilder
	nodes map[aoi.Type]*pres.Node
	decls []cast.Decl
	done  map[string]bool
}

// GenerateC builds the C presentation of every interface in f.
func GenerateC(f *aoi.File, side presc.Side, style string) (*presc.File, error) {
	switch style {
	case "corba", "rpcgen", "fluke":
	default:
		return nil, fmt.Errorf("pgen: unknown C presentation style %q", style)
	}
	g := &CPresentation{
		style: style,
		mb:    NewMintBuilder(),
		nodes: map[aoi.Type]*pres.Node{},
		done:  map[string]bool{},
	}
	// The paper's presentation limits (footnote 3): the rpcgen style has
	// no exceptions; the CORBA style has no self-referential types
	// (checked during node construction).
	if style == "rpcgen" {
		for _, it := range f.Interfaces {
			if len(it.Excepts) > 0 {
				return nil, fmt.Errorf("pgen: the rpcgen presentation cannot express exceptions (interface %s)", it.Name)
			}
		}
	}
	out := &presc.File{
		Name:         f.Source,
		Side:         side,
		Lang:         "c",
		Presentation: style,
	}
	for _, td := range f.Types {
		if _, err := g.typeFor(td.Type); err != nil {
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
	out.Decls = g.decls
	return out, nil
}

func (g *CPresentation) prefix() string {
	if g.style == "rpcgen" {
		return ""
	}
	if g.style == "fluke" {
		return "fluke_"
	}
	return "CORBA_"
}

func (g *CPresentation) addDecl(name string, d cast.Decl) {
	if g.done[name] {
		return
	}
	g.done[name] = true
	g.decls = append(g.decls, d)
}

// typeFor maps an AOI type onto a C type, emitting named declarations as
// a side effect.
func (g *CPresentation) typeFor(t aoi.Type) (cast.Type, error) {
	switch t := t.(type) {
	case *aoi.Primitive:
		return g.prim(t.Kind), nil
	case *aoi.String:
		return cast.PtrTo(cast.Char), nil
	case *aoi.Sequence:
		return g.seqType(t)
	case *aoi.Array:
		elem, err := g.typeFor(t.Elem)
		if err != nil {
			return nil, err
		}
		return &cast.Arr{Elem: elem, Len: int64(t.Length)}, nil
	case *aoi.Struct:
		return g.structType(t)
	case *aoi.Union:
		return g.unionType(t)
	case *aoi.Enum:
		return g.enumType(t)
	case *aoi.NamedRef:
		return g.typeFor(t.Def)
	case *aoi.Optional:
		elem, err := g.typeFor(t.Elem)
		if err != nil {
			return nil, err
		}
		return cast.PtrTo(elem), nil
	case *aoi.InterfaceRef:
		return &cast.Named{Name: CName(t.Name)}, nil
	default:
		return nil, fmt.Errorf("pgen: unknown AOI type %T", t)
	}
}

func (g *CPresentation) prim(k aoi.PrimKind) cast.Type {
	if g.style == "rpcgen" {
		switch k {
		case aoi.Void:
			return cast.Void
		case aoi.Boolean:
			return &cast.Named{Name: "bool_t"}
		case aoi.Octet:
			return &cast.Prim{Name: "u_char"}
		case aoi.Char:
			return cast.Char
		case aoi.Short:
			return &cast.Prim{Name: "short"}
		case aoi.UShort:
			return &cast.Prim{Name: "u_short"}
		case aoi.Long:
			return &cast.Prim{Name: "int"}
		case aoi.ULong:
			return &cast.Prim{Name: "u_int"}
		case aoi.LongLong:
			return &cast.Prim{Name: "quad_t"}
		case aoi.ULongLong:
			return &cast.Prim{Name: "u_quad_t"}
		case aoi.Float:
			return cast.Float
		case aoi.Double:
			return cast.Double
		}
		return cast.Void
	}
	p := g.prefix()
	switch k {
	case aoi.Void:
		return cast.Void
	case aoi.Boolean:
		return &cast.Named{Name: p + "boolean"}
	case aoi.Octet:
		return &cast.Named{Name: p + "octet"}
	case aoi.Char:
		return &cast.Named{Name: p + "char"}
	case aoi.Short:
		return &cast.Named{Name: p + "short"}
	case aoi.UShort:
		return &cast.Named{Name: p + "unsigned_short"}
	case aoi.Long:
		return &cast.Named{Name: p + "long"}
	case aoi.ULong:
		return &cast.Named{Name: p + "unsigned_long"}
	case aoi.LongLong:
		return &cast.Named{Name: p + "long_long"}
	case aoi.ULongLong:
		return &cast.Named{Name: p + "unsigned_long_long"}
	case aoi.Float:
		return &cast.Named{Name: p + "float"}
	case aoi.Double:
		return &cast.Named{Name: p + "double"}
	}
	return cast.Void
}

// seqType emits the CORBA sequence struct (or rpcgen counted struct) for
// a sequence type and returns its typedef name.
func (g *CPresentation) seqType(t *aoi.Sequence) (cast.Type, error) {
	elem, err := g.typeFor(t.Elem)
	if err != nil {
		return nil, err
	}
	name := g.seqName(t)
	lenT := g.prim(aoi.ULong)
	if g.style == "rpcgen" {
		lenT = &cast.Prim{Name: "u_int"}
	}
	fields := []cast.Field{}
	if g.style != "rpcgen" {
		fields = append(fields, cast.Field{Name: "_maximum", Type: lenT})
	}
	fields = append(fields,
		cast.Field{Name: g.lenField(), Type: lenT},
		cast.Field{Name: g.bufField(), Type: cast.PtrTo(elem)},
	)
	g.addDecl(name, &cast.TypedefDecl{
		Name: name,
		Type: &cast.StructType{Fields: fields},
	})
	return &cast.Named{Name: name}, nil
}

func (g *CPresentation) lenField() string {
	if g.style == "rpcgen" {
		return "len"
	}
	return "_length"
}

func (g *CPresentation) bufField() string {
	if g.style == "rpcgen" {
		return "val"
	}
	return "_buffer"
}

func (g *CPresentation) seqName(t *aoi.Sequence) string {
	elem := "elem"
	switch e := aoi.Resolve(t.Elem).(type) {
	case *aoi.Primitive:
		elem = sanitizeCName(e.Kind.String())
	case *aoi.Struct:
		elem = CName(e.Name)
	case *aoi.Union:
		elem = CName(e.Name)
	case *aoi.Enum:
		elem = CName(e.Name)
	case *aoi.String:
		elem = "string"
	}
	return "seq_" + elem
}

func sanitizeCName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			out = append(out, '_')
		} else {
			out = append(out, r)
		}
	}
	return string(out)
}

func (g *CPresentation) structType(t *aoi.Struct) (cast.Type, error) {
	name := CName(t.Name)
	if t.Name == "" {
		return nil, fmt.Errorf("pgen: anonymous structs are not presentable in C")
	}
	if g.done[name] {
		return &cast.Named{Name: name}, nil
	}
	g.done[name] = true
	var fields []cast.Field
	for _, f := range t.Fields {
		ft, err := g.typeFor(f.Type)
		if err != nil {
			return nil, err
		}
		fields = append(fields, cast.Field{Name: f.Name, Type: ft})
	}
	g.decls = append(g.decls, &cast.TypedefDecl{
		Name: name,
		Type: &cast.StructType{Tag: name, Fields: fields},
	})
	return &cast.Named{Name: name}, nil
}

func (g *CPresentation) unionType(t *aoi.Union) (cast.Type, error) {
	name := CName(t.Name)
	if g.done[name] {
		return &cast.Named{Name: name}, nil
	}
	g.done[name] = true
	dt, err := g.typeFor(t.Discrim)
	if err != nil {
		return nil, err
	}
	var arms []cast.Field
	for _, c := range t.Cases {
		if aoi.IsVoid(c.Field.Type) {
			continue
		}
		ft, err := g.typeFor(c.Field.Type)
		if err != nil {
			return nil, err
		}
		arms = append(arms, cast.Field{Name: c.Field.Name, Type: ft})
	}
	g.decls = append(g.decls, &cast.TypedefDecl{
		Name: name,
		Type: &cast.StructType{Tag: name, Fields: []cast.Field{
			{Name: "_d", Type: dt},
			{Name: "_u", Type: &cast.UnionType{Fields: arms}},
		}},
	})
	return &cast.Named{Name: name}, nil
}

func (g *CPresentation) enumType(t *aoi.Enum) (cast.Type, error) {
	name := CName(t.Name)
	if t.Name == "" {
		return g.prim(aoi.ULong), nil
	}
	if g.done[name] {
		return &cast.Named{Name: name}, nil
	}
	g.done[name] = true
	var members []cast.EnumMember
	for i, m := range t.Members {
		members = append(members, cast.EnumMember{
			Name: m, Value: t.Values[i],
			Explicit: t.Values[i] != int64(i),
		})
	}
	g.decls = append(g.decls, &cast.TypedefDecl{
		Name: name,
		Type: &cast.EnumType{Tag: name, Members: members},
	})
	return &cast.Named{Name: name}, nil
}

// node builds the PRES tree presenting t as its C type.
func (g *CPresentation) node(t aoi.Type) (*pres.Node, error) {
	if n, ok := g.nodes[t]; ok {
		return &pres.Node{Kind: pres.RefKind, Name: "ref", Target: n}, nil
	}
	m := g.mb.Convert(t)
	ct, err := g.typeFor(t)
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
		// C strings are NUL-terminated char*: the OPT_STR-style
		// terminated presentation of the paper's Figure 2.
		return &pres.Node{
			Kind: pres.TerminatedKind, Mint: m, CType: ct,
			Children: []*pres.Node{{Kind: pres.DirectKind, Mint: g.mb.Convert(&aoi.Primitive{Kind: aoi.Char}), CType: cast.Char}},
		}, nil
	case *aoi.Sequence:
		node := &pres.Node{
			Kind: pres.CountedKind, Mint: m, CType: ct,
			LengthField: g.lenField(), BufferField: g.bufField(),
		}
		g.nodes[t] = node
		elem, err := g.node(t.Elem)
		if err != nil {
			return nil, err
		}
		node.Children = []*pres.Node{elem}
		return node, nil
	case *aoi.Array:
		node := &pres.Node{Kind: pres.FixedArrayKind, Mint: m, CType: ct}
		g.nodes[t] = node
		elem, err := g.node(t.Elem)
		if err != nil {
			return nil, err
		}
		node.Children = []*pres.Node{elem}
		return node, nil
	case *aoi.Struct:
		node := &pres.Node{Kind: pres.StructKind, Mint: m, CType: ct, Name: CName(t.Name)}
		g.nodes[t] = node
		for _, f := range t.Fields {
			child, err := g.node(f.Type)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
			node.FieldNames = append(node.FieldNames, f.Name)
		}
		return node, nil
	case *aoi.Union:
		node := &pres.Node{Kind: pres.UnionKind, Mint: m, CType: ct, Name: CName(t.Name)}
		dt, err := g.typeFor(t.Discrim)
		if err != nil {
			return nil, err
		}
		node.DiscrimCType = dt
		g.nodes[t] = node
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
				node.FieldNames = append(node.FieldNames, cArmName(c.Field))
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
			node.FieldNames = append(node.FieldNames, cArmName(c.Field))
		}
		return node, nil
	case *aoi.NamedRef:
		return g.node(t.Def)
	case *aoi.Optional:
		node := &pres.Node{Kind: pres.OptPtrKind, Mint: m, CType: ct}
		g.nodes[t] = node
		elem, err := g.node(t.Elem)
		if err != nil {
			return nil, err
		}
		node.Children = []*pres.Node{elem}
		return node, nil
	case *aoi.InterfaceRef:
		return &pres.Node{
			Kind: pres.CountedKind, Mint: m, CType: ct,
			LengthField: g.lenField(), BufferField: g.bufField(),
			Children: []*pres.Node{{Kind: pres.DirectKind, Mint: g.mb.Convert(&aoi.Primitive{Kind: aoi.Octet}), CType: &cast.Prim{Name: "unsigned char"}}},
		}, nil
	default:
		return nil, fmt.Errorf("pgen: unknown AOI type %T", t)
	}
}

func cArmName(f aoi.Field) string {
	if aoi.IsVoid(f.Type) {
		return ""
	}
	return "_u." + f.Name
}

func (g *CPresentation) armNode(f aoi.Field) (*pres.Node, error) {
	if aoi.IsVoid(f.Type) {
		return &pres.Node{Kind: pres.VoidKind, Mint: g.mb.Convert(&aoi.Primitive{Kind: aoi.Void})}, nil
	}
	return g.node(f.Type)
}

func (g *CPresentation) interfaceStubs(it *aoi.Interface, side presc.Side) ([]*presc.Stub, error) {
	// Object handle type.
	if g.style != "rpcgen" {
		g.addDecl(CName(it.Name), &cast.TypedefDecl{
			Name: CName(it.Name),
			Type: cast.PtrTo(cast.Void),
		})
	}
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

func (g *CPresentation) stubName(it *aoi.Interface, op *aoi.Operation) string {
	if g.style == "rpcgen" {
		return fmt.Sprintf("%s_%d", op.Name, it.Version)
	}
	return CName(it.Name) + "_" + op.Name
}

func (g *CPresentation) opStub(it *aoi.Interface, op *aoi.Operation, side presc.Side) (*presc.Stub, error) {
	stub := g.mb.newStub(it, op, side, g.stubName(it, op))
	decl := &cast.FuncDecl{Name: stub.Name}
	if g.style != "rpcgen" {
		decl.Params = append(decl.Params, cast.Param{Name: "_obj", Type: &cast.Named{Name: CName(it.Name)}})
	}
	for _, p := range op.Params {
		node, err := g.node(p.Type)
		if err != nil {
			return nil, err
		}
		ct, err := g.typeFor(p.Type)
		if err != nil {
			return nil, err
		}
		paramT := g.paramCType(p, ct)
		decl.Params = append(decl.Params, cast.Param{Name: p.Name, Type: paramT})
		stub.Params = append(stub.Params, paramPres(p.Name, p.Dir, paramT, node))
	}
	// Result.
	ret := cast.Type(cast.Void)
	if hasResult(op) {
		node, err := g.node(op.Result)
		if err != nil {
			return nil, err
		}
		rt, err := g.typeFor(op.Result)
		if err != nil {
			return nil, err
		}
		stub.Result = &presc.ParamPres{Name: "_ret", CType: rt, Role: presc.RoleReply, Reply: node}
		ret = rt
	}
	if g.style == "rpcgen" {
		// rpcgen: result returned by pointer; CLIENT handle last.
		if stub.Result != nil {
			ret = cast.PtrTo(ret)
		}
		decl.Params = append(decl.Params, cast.Param{Name: "clnt", Type: cast.PtrTo(&cast.Named{Name: "CLIENT"})})
	} else {
		// CORBA: environment out-parameter last.
		decl.Params = append(decl.Params, cast.Param{
			Name: "_ev", Type: cast.PtrTo(&cast.Named{Name: g.prefix() + "Environment"}),
		})
	}
	decl.Ret = ret
	stub.CDecl = decl
	// Exception bodies.
	for _, exName := range op.Raises {
		ex := findExcept(it.Excepts, exName)
		if ex == nil {
			return nil, fmt.Errorf("pgen: %s.%s raises unknown exception %s", it.Name, op.Name, exName)
		}
		exStruct := &aoi.Struct{Name: it.Name + "_" + ex.Name, Fields: ex.Fields}
		node, err := g.node(exStruct)
		if err != nil {
			return nil, err
		}
		stub.ExceptionPres = append(stub.ExceptionPres, node.Resolve())
	}
	return stub, nil
}

// paramCType applies the C parameter-passing rules: in scalars by value,
// aggregates by pointer, strings as char*, out parameters by pointer.
func (g *CPresentation) paramCType(p aoi.Param, ct cast.Type) cast.Type {
	aggregate := false
	switch aoi.Resolve(p.Type).(type) {
	case *aoi.Struct, *aoi.Union, *aoi.Sequence:
		aggregate = true
	case *aoi.Array:
		// C arrays decay to pointers; keep the array type spelling.
		return ct
	}
	switch p.Dir {
	case aoi.In:
		if aggregate {
			return cast.PtrTo(ct)
		}
		return ct
	default:
		return cast.PtrTo(ct)
	}
}
