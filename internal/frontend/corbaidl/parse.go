// Package corbaidl is Flick's CORBA IDL front end: it parses a CORBA 2.0
// IDL subset and produces AOI. The subset covers the constructs the paper
// exercises: modules, interfaces (with inheritance), operations (with
// oneway, in/out/inout, raises), attributes, exceptions, typedefs,
// structs, discriminated unions, enums, sequences, bounded strings,
// arrays, and constants.
package corbaidl

import (
	"strings"

	"flick/internal/aoi"
	"flick/internal/frontend/idllex"
)

// Parse converts CORBA IDL source into AOI.
func Parse(filename, src string) (*aoi.File, error) {
	lex := idllex.New(filename, src, "::", "<<", ">>")
	base, err := idllex.NewParser(lex)
	if err != nil {
		return nil, err
	}
	p := &parser{
		Parser: base,
		file:   &aoi.File{Source: filename, IDL: "corba"},
		types:  map[string]aoi.Type{},
		consts: map[string]*aoi.ConstDef{},
	}
	if err := p.parseSpec(); err != nil {
		return nil, err
	}
	if err := idllex.ApplyFlickPragmas(lex, p.file); err != nil {
		return nil, err
	}
	if err := aoi.Validate(p.file); err != nil {
		return nil, err
	}
	return p.file, nil
}

type parser struct {
	*idllex.Parser
	file *aoi.File
	// module tracks the current module scope.
	module []string
	// types maps visible type names (unqualified within the current
	// scope chain) to definitions.
	types  map[string]aoi.Type
	consts map[string]*aoi.ConstDef
	// inAngle is set while a '<'-bracketed bound is being parsed: there
	// ">>" closes two brackets rather than shifting (parentheses bring
	// the operator back, as in C++).
	inAngle bool
}

var corbaKeywords = map[string]bool{
	"module": true, "interface": true, "typedef": true, "struct": true,
	"union": true, "enum": true, "const": true, "exception": true,
	"attribute": true, "readonly": true, "oneway": true, "in": true,
	"out": true, "inout": true, "raises": true, "void": true,
	"boolean": true, "char": true, "octet": true, "short": true,
	"long": true, "unsigned": true, "float": true, "double": true,
	"string": true, "sequence": true, "switch": true, "case": true,
	"default": true, "TRUE": true, "FALSE": true, "any": true,
}

func (p *parser) scopedName(name string) string {
	if len(p.module) == 0 {
		return name
	}
	return strings.Join(p.module, "::") + "::" + name
}

func (p *parser) defineType(name string, t aoi.Type) error {
	return p.defineQualified(p.scopedName(name), t)
}

// declPos captures the current token's position as an AOI declaration
// site, so aoi.Validate diagnostics point back into the IDL source.
func (p *parser) declPos() aoi.Pos {
	file, line, col := p.Pos()
	return aoi.Pos{File: file, Line: line, Col: col}
}

// defineQualified registers a type whose name is already fully scoped
// (struct/union/enum bodies scope their own names).
func (p *parser) defineQualified(qual string, t aoi.Type) error {
	if _, dup := p.types[qual]; dup {
		return p.Errf("redefinition of %q", qual)
	}
	p.types[qual] = t
	p.file.Types = append(p.file.Types, &aoi.TypeDef{Name: qual, Type: t, Pos: p.declPos()})
	return nil
}

// lookupType searches the scope chain: innermost module first, then
// enclosing modules, then global.
func (p *parser) lookupType(name string) (aoi.Type, bool) {
	for i := len(p.module); i >= 0; i-- {
		var qual string
		if i == 0 {
			qual = name
		} else {
			qual = strings.Join(p.module[:i], "::") + "::" + name
		}
		if t, ok := p.types[qual]; ok {
			return t, true
		}
	}
	return nil, false
}

func (p *parser) lookupConst(name string) (*aoi.ConstDef, bool) {
	for i := len(p.module); i >= 0; i-- {
		var qual string
		if i == 0 {
			qual = name
		} else {
			qual = strings.Join(p.module[:i], "::") + "::" + name
		}
		if c, ok := p.consts[qual]; ok {
			return c, true
		}
	}
	return nil, false
}

func (p *parser) parseSpec() error {
	for !p.AtEOF() {
		if err := p.parseDefinition(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseDefinition() error {
	switch {
	case p.At("module"):
		return p.parseModule()
	case p.At("interface"):
		return p.parseInterface()
	case p.At("typedef"):
		return p.parseTypedef()
	case p.At("struct"):
		t, err := p.parseStruct()
		if err != nil {
			return err
		}
		if err := p.defineQualified(t.Name, t); err != nil {
			return err
		}
		return p.Expect(";")
	case p.At("union"):
		t, err := p.parseUnion()
		if err != nil {
			return err
		}
		if err := p.defineQualified(t.Name, t); err != nil {
			return err
		}
		return p.Expect(";")
	case p.At("enum"):
		t, err := p.parseEnum()
		if err != nil {
			return err
		}
		if err := p.defineQualified(t.Name, t); err != nil {
			return err
		}
		return p.Expect(";")
	case p.At("const"):
		return p.parseConst()
	default:
		return p.Unexpected("specification")
	}
}

func (p *parser) parseModule() error {
	if err := p.Expect("module"); err != nil {
		return err
	}
	name, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	p.module = append(p.module, name)
	for !p.At("}") {
		if p.AtEOF() {
			return p.Errf("unexpected end of file in module %s", name)
		}
		if err := p.parseDefinition(); err != nil {
			return err
		}
	}
	p.module = p.module[:len(p.module)-1]
	if err := p.Expect("}"); err != nil {
		return err
	}
	return p.Expect(";")
}

func (p *parser) parseInterface() error {
	if err := p.Expect("interface"); err != nil {
		return err
	}
	pos := p.declPos()
	name, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	// Forward declaration: "interface Name;"
	if ok, err := p.Accept(";"); err != nil || ok {
		if err == nil {
			p.types[p.scopedName(name)] = &aoi.InterfaceRef{Name: p.scopedName(name)}
		}
		return err
	}
	it := &aoi.Interface{
		Name:   name,
		Module: strings.Join(p.module, "::"),
		ID:     "IDL:" + strings.Join(append(append([]string{}, p.module...), name), "/") + ":1.0",
		Pos:    pos,
	}
	if ok, err := p.Accept(":"); err != nil {
		return err
	} else if ok {
		for {
			parent, err := p.parseScopedIdent()
			if err != nil {
				return err
			}
			it.Parents = append(it.Parents, parent)
			if ok, err := p.Accept(","); err != nil {
				return err
			} else if !ok {
				break
			}
		}
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	// Interface type is usable as an object reference inside its body,
	// and the interface name opens a scope for nested declarations.
	p.types[p.scopedName(name)] = &aoi.InterfaceRef{Name: p.scopedName(name)}
	p.module = append(p.module, name)
	code := uint32(0)
	// Inherited operations come first in discriminator order.
	for _, parentName := range it.Parents {
		parent := p.file.LookupInterface(parentName)
		if parent == nil {
			return p.Errf("unknown base interface %q", parentName)
		}
		for _, op := range parent.Ops {
			cp := *op
			cp.Code = code
			code++
			it.Ops = append(it.Ops, &cp)
		}
		it.Excepts = append(it.Excepts, parent.Excepts...)
	}
	for !p.At("}") {
		if p.AtEOF() {
			return p.Errf("unexpected end of file in interface %s", name)
		}
		if err := p.parseExport(it, &code); err != nil {
			return err
		}
	}
	p.module = p.module[:len(p.module)-1]
	if err := p.Expect("}"); err != nil {
		return err
	}
	if err := p.Expect(";"); err != nil {
		return err
	}
	p.file.Interfaces = append(p.file.Interfaces, it)
	return nil
}

func (p *parser) parseExport(it *aoi.Interface, code *uint32) error {
	switch {
	case p.At("typedef"):
		return p.parseTypedef()
	case p.At("struct"):
		t, err := p.parseStruct()
		if err != nil {
			return err
		}
		if err := p.defineQualified(t.Name, t); err != nil {
			return err
		}
		return p.Expect(";")
	case p.At("union"):
		t, err := p.parseUnion()
		if err != nil {
			return err
		}
		if err := p.defineQualified(t.Name, t); err != nil {
			return err
		}
		return p.Expect(";")
	case p.At("enum"):
		t, err := p.parseEnum()
		if err != nil {
			return err
		}
		if err := p.defineQualified(t.Name, t); err != nil {
			return err
		}
		return p.Expect(";")
	case p.At("const"):
		return p.parseConst()
	case p.At("exception"):
		return p.parseException(it)
	case p.At("attribute"), p.At("readonly"):
		return p.parseAttribute(it)
	default:
		return p.parseOperation(it, code)
	}
}

func (p *parser) parseException(it *aoi.Interface) error {
	if err := p.Expect("exception"); err != nil {
		return err
	}
	name, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	ex := &aoi.Exception{
		Name: name,
		ID:   "IDL:" + it.Name + "/" + name + ":1.0",
	}
	for !p.At("}") {
		fields, err := p.parseMembers()
		if err != nil {
			return err
		}
		ex.Fields = append(ex.Fields, fields...)
	}
	if err := p.Expect("}"); err != nil {
		return err
	}
	if err := p.Expect(";"); err != nil {
		return err
	}
	it.Excepts = append(it.Excepts, ex)
	return nil
}

func (p *parser) parseAttribute(it *aoi.Interface) error {
	readonly, err := p.Accept("readonly")
	if err != nil {
		return err
	}
	if err := p.Expect("attribute"); err != nil {
		return err
	}
	t, err := p.parseType()
	if err != nil {
		return err
	}
	for {
		name, err := p.ExpectIdent()
		if err != nil {
			return err
		}
		it.Attrs = append(it.Attrs, &aoi.Attribute{Name: name, Type: t, ReadOnly: readonly})
		if ok, err := p.Accept(","); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	return p.Expect(";")
}

func (p *parser) parseOperation(it *aoi.Interface, code *uint32) error {
	op := &aoi.Operation{Code: *code, Pos: p.declPos()}
	*code++
	var err error
	if op.Oneway, err = p.Accept("oneway"); err != nil {
		return err
	}
	if op.Result, err = p.parseType(); err != nil {
		return err
	}
	if op.Name, err = p.ExpectIdent(); err != nil {
		return err
	}
	if err := p.Expect("("); err != nil {
		return err
	}
	for !p.At(")") {
		var dir aoi.Direction
		switch {
		case p.At("in"):
			dir = aoi.In
		case p.At("out"):
			dir = aoi.Out
		case p.At("inout"):
			dir = aoi.InOut
		default:
			return p.Errf("expected parameter direction (in/out/inout), found %s", p.Tok())
		}
		if err := p.Advance(); err != nil {
			return err
		}
		t, err := p.parseType()
		if err != nil {
			return err
		}
		name, err := p.ExpectIdent()
		if err != nil {
			return err
		}
		op.Params = append(op.Params, aoi.Param{Name: name, Dir: dir, Type: t})
		if ok, err := p.Accept(","); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	if err := p.Expect(")"); err != nil {
		return err
	}
	if ok, err := p.Accept("raises"); err != nil {
		return err
	} else if ok {
		if err := p.Expect("("); err != nil {
			return err
		}
		for {
			ex, err := p.parseScopedIdent()
			if err != nil {
				return err
			}
			op.Raises = append(op.Raises, ex)
			if ok, err := p.Accept(","); err != nil {
				return err
			} else if !ok {
				break
			}
		}
		if err := p.Expect(")"); err != nil {
			return err
		}
	}
	if err := p.Expect(";"); err != nil {
		return err
	}
	it.Ops = append(it.Ops, op)
	return nil
}

func (p *parser) parseScopedIdent() (string, error) {
	var parts []string
	if ok, err := p.Accept("::"); err != nil {
		return "", err
	} else if ok {
		// Fully-qualified from global scope.
	}
	for {
		name, err := p.ExpectIdent()
		if err != nil {
			return "", err
		}
		parts = append(parts, name)
		if ok, err := p.Accept("::"); err != nil {
			return "", err
		} else if !ok {
			break
		}
	}
	return strings.Join(parts, "::"), nil
}

func (p *parser) parseTypedef() error {
	if err := p.Expect("typedef"); err != nil {
		return err
	}
	base, err := p.parseType()
	if err != nil {
		return err
	}
	for {
		name, err := p.ExpectIdent()
		if err != nil {
			return err
		}
		t := base
		// Array declarator suffixes.
		for p.At("[") {
			if err := p.Advance(); err != nil {
				return err
			}
			n, err := p.parseConstUint()
			if err != nil {
				return err
			}
			if err := p.Expect("]"); err != nil {
				return err
			}
			t = &aoi.Array{Elem: t, Length: n}
		}
		if err := p.defineType(name, t); err != nil {
			return err
		}
		if ok, err := p.Accept(","); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	return p.Expect(";")
}

func (p *parser) parseConst() error {
	if err := p.Expect("const"); err != nil {
		return err
	}
	t, err := p.parseType()
	if err != nil {
		return err
	}
	name, err := p.ExpectIdent()
	if err != nil {
		return err
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	cd := &aoi.ConstDef{Name: p.scopedName(name), Type: t}
	if p.Tok().Kind == idllex.Str {
		cd.Str = p.Tok().Text
		if err := p.Advance(); err != nil {
			return err
		}
	} else {
		v, err := p.parseConstExpr()
		if err != nil {
			return err
		}
		cd.Int = v
	}
	p.consts[cd.Name] = cd
	p.file.Consts = append(p.file.Consts, cd)
	return p.Expect(";")
}

// parseConstExpr evaluates an integer constant expression with the usual
// C precedence for | ^ & << >> + - * / % and unary -.
func (p *parser) parseConstExpr() (int64, error) { return p.orExpr() }

func (p *parser) orExpr() (int64, error) {
	v, err := p.xorExpr()
	if err != nil {
		return 0, err
	}
	for p.At("|") {
		if err := p.Advance(); err != nil {
			return 0, err
		}
		r, err := p.xorExpr()
		if err != nil {
			return 0, err
		}
		v |= r
	}
	return v, nil
}

func (p *parser) xorExpr() (int64, error) {
	v, err := p.andExpr()
	if err != nil {
		return 0, err
	}
	for p.At("^") {
		if err := p.Advance(); err != nil {
			return 0, err
		}
		r, err := p.andExpr()
		if err != nil {
			return 0, err
		}
		v ^= r
	}
	return v, nil
}

func (p *parser) andExpr() (int64, error) {
	v, err := p.shiftExpr()
	if err != nil {
		return 0, err
	}
	for p.At("&") {
		if err := p.Advance(); err != nil {
			return 0, err
		}
		r, err := p.shiftExpr()
		if err != nil {
			return 0, err
		}
		v &= r
	}
	return v, nil
}

func (p *parser) shiftExpr() (int64, error) {
	v, err := p.addExpr()
	if err != nil {
		return 0, err
	}
	for p.At("<<") || p.At(">>") && !p.inAngle {
		op := p.Tok().Text
		if err := p.Advance(); err != nil {
			return 0, err
		}
		r, err := p.addExpr()
		if err != nil {
			return 0, err
		}
		if r < 0 || r > 63 {
			return 0, p.Errf("shift count %d out of range", r)
		}
		if op == "<<" {
			v <<= uint(r)
		} else {
			v >>= uint(r)
		}
	}
	return v, nil
}

func (p *parser) addExpr() (int64, error) {
	v, err := p.mulExpr()
	if err != nil {
		return 0, err
	}
	for p.At("+") || p.At("-") {
		op := p.Tok().Text
		if err := p.Advance(); err != nil {
			return 0, err
		}
		r, err := p.mulExpr()
		if err != nil {
			return 0, err
		}
		if op == "+" {
			v += r
		} else {
			v -= r
		}
	}
	return v, nil
}

func (p *parser) mulExpr() (int64, error) {
	v, err := p.unaryExpr()
	if err != nil {
		return 0, err
	}
	for p.At("*") || p.At("/") || p.At("%") {
		op := p.Tok().Text
		if err := p.Advance(); err != nil {
			return 0, err
		}
		r, err := p.unaryExpr()
		if err != nil {
			return 0, err
		}
		switch op {
		case "*":
			v *= r
		case "/":
			if r == 0 {
				return 0, p.Errf("division by zero in constant expression")
			}
			v /= r
		case "%":
			if r == 0 {
				return 0, p.Errf("division by zero in constant expression")
			}
			v %= r
		}
	}
	return v, nil
}

func (p *parser) unaryExpr() (int64, error) {
	if p.At("-") {
		if err := p.Advance(); err != nil {
			return 0, err
		}
		v, err := p.unaryExpr()
		return -v, err
	}
	if p.At("~") {
		if err := p.Advance(); err != nil {
			return 0, err
		}
		v, err := p.unaryExpr()
		return ^v, err
	}
	if p.At("(") {
		if err := p.Advance(); err != nil {
			return 0, err
		}
		outer := p.inAngle
		p.inAngle = false
		v, err := p.parseConstExpr()
		p.inAngle = outer
		if err != nil {
			return 0, err
		}
		return v, p.Expect(")")
	}
	tok := p.Tok()
	switch tok.Kind {
	case idllex.Int, idllex.CharLit:
		return tok.Val, p.Advance()
	case idllex.Ident:
		switch tok.Text {
		case "TRUE":
			return 1, p.Advance()
		case "FALSE":
			return 0, p.Advance()
		}
		name, err := p.parseScopedIdent()
		if err != nil {
			return 0, err
		}
		if cd, ok := p.lookupConst(name); ok {
			return cd.Int, nil
		}
		// Enum member?
		if v, ok := p.lookupEnumMember(name); ok {
			return v, nil
		}
		return 0, p.Errf("undefined constant %q", name)
	}
	return 0, p.Unexpected("constant expression")
}

func (p *parser) lookupEnumMember(name string) (int64, bool) {
	for _, td := range p.file.Types {
		if e, ok := td.Type.(*aoi.Enum); ok {
			for i, m := range e.Members {
				if m == name {
					return e.Values[i], true
				}
			}
		}
	}
	return 0, false
}

// parseAngleBound parses the bound of string<N> / sequence<T, N> and the
// closing bracket.
func (p *parser) parseAngleBound() (uint32, error) {
	p.inAngle = true
	n, err := p.parseConstUint()
	p.inAngle = false
	if err != nil {
		return 0, err
	}
	return n, p.ExpectAngleClose()
}

func (p *parser) parseConstUint() (uint32, error) {
	v, err := p.parseConstExpr()
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 0xFFFFFFFF {
		return 0, p.Errf("value %d out of range for a length", v)
	}
	return uint32(v), nil
}

func (p *parser) parseStruct() (*aoi.Struct, error) {
	if err := p.Expect("struct"); err != nil {
		return nil, err
	}
	name, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.Expect("{"); err != nil {
		return nil, err
	}
	st := &aoi.Struct{Name: p.scopedName(name)}
	// Allow self-reference through sequence inside the body (CORBA
	// forbids it, matching the paper's note; we register nothing).
	for !p.At("}") {
		if p.AtEOF() {
			return nil, p.Errf("unexpected end of file in struct %s", name)
		}
		fields, err := p.parseMembers()
		if err != nil {
			return nil, err
		}
		st.Fields = append(st.Fields, fields...)
	}
	if err := p.Expect("}"); err != nil {
		return nil, err
	}
	return st, nil
}

// parseMembers parses "type name [, name]* ;" possibly with array
// declarators, returning one Field per declarator.
func (p *parser) parseMembers() ([]aoi.Field, error) {
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	var fields []aoi.Field
	for {
		name, err := p.ExpectIdent()
		if err != nil {
			return nil, err
		}
		ft := t
		for p.At("[") {
			if err := p.Advance(); err != nil {
				return nil, err
			}
			n, err := p.parseConstUint()
			if err != nil {
				return nil, err
			}
			if err := p.Expect("]"); err != nil {
				return nil, err
			}
			ft = &aoi.Array{Elem: ft, Length: n}
		}
		fields = append(fields, aoi.Field{Name: name, Type: ft})
		if ok, err := p.Accept(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	return fields, p.Expect(";")
}

func (p *parser) parseUnion() (*aoi.Union, error) {
	if err := p.Expect("union"); err != nil {
		return nil, err
	}
	name, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.Expect("switch"); err != nil {
		return nil, err
	}
	if err := p.Expect("("); err != nil {
		return nil, err
	}
	discrim, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if err := p.Expect(")"); err != nil {
		return nil, err
	}
	if err := p.Expect("{"); err != nil {
		return nil, err
	}
	u := &aoi.Union{Name: p.scopedName(name), Discrim: discrim}
	for !p.At("}") {
		if p.AtEOF() {
			return nil, p.Errf("unexpected end of file in union %s", name)
		}
		var c aoi.UnionCase
		for p.At("case") || p.At("default") {
			if p.At("default") {
				if err := p.Advance(); err != nil {
					return nil, err
				}
				c.IsDefault = true
				if err := p.Expect(":"); err != nil {
					return nil, err
				}
				continue
			}
			if err := p.Advance(); err != nil {
				return nil, err
			}
			v, err := p.parseCaseLabel(discrim)
			if err != nil {
				return nil, err
			}
			c.Labels = append(c.Labels, v)
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
		}
		if len(c.Labels) == 0 && !c.IsDefault {
			return nil, p.Errf("expected case or default in union %s", name)
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fname, err := p.ExpectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.Expect(";"); err != nil {
			return nil, err
		}
		c.Field = aoi.Field{Name: fname, Type: t}
		u.Cases = append(u.Cases, c)
	}
	if err := p.Expect("}"); err != nil {
		return nil, err
	}
	return u, nil
}

func (p *parser) parseCaseLabel(discrim aoi.Type) (int64, error) {
	// Enum discriminators take member names as labels.
	if e, ok := aoi.Resolve(discrim).(*aoi.Enum); ok && p.Tok().Kind == idllex.Ident &&
		!p.At("TRUE") && !p.At("FALSE") {
		name := p.Tok().Text
		for i, m := range e.Members {
			short := m
			if idx := strings.LastIndex(m, "::"); idx >= 0 {
				short = m[idx+2:]
			}
			if short == name || m == name {
				return e.Values[i], p.Advance()
			}
		}
	}
	return p.parseConstExpr()
}

func (p *parser) parseEnum() (*aoi.Enum, error) {
	if err := p.Expect("enum"); err != nil {
		return nil, err
	}
	name, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.Expect("{"); err != nil {
		return nil, err
	}
	e := &aoi.Enum{Name: p.scopedName(name)}
	v := int64(0)
	for {
		m, err := p.ExpectIdent()
		if err != nil {
			return nil, err
		}
		e.Members = append(e.Members, m)
		e.Values = append(e.Values, v)
		v++
		if ok, err := p.Accept(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.Expect("}"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) parseType() (aoi.Type, error) {
	tok := p.Tok()
	if tok.Kind != idllex.Ident {
		return nil, p.Unexpected("type")
	}
	switch tok.Text {
	case "void":
		return &aoi.Primitive{Kind: aoi.Void}, p.Advance()
	case "boolean":
		return &aoi.Primitive{Kind: aoi.Boolean}, p.Advance()
	case "octet":
		return &aoi.Primitive{Kind: aoi.Octet}, p.Advance()
	case "char":
		return &aoi.Primitive{Kind: aoi.Char}, p.Advance()
	case "float":
		return &aoi.Primitive{Kind: aoi.Float}, p.Advance()
	case "double":
		return &aoi.Primitive{Kind: aoi.Double}, p.Advance()
	case "short":
		return &aoi.Primitive{Kind: aoi.Short}, p.Advance()
	case "long":
		if err := p.Advance(); err != nil {
			return nil, err
		}
		if p.At("long") {
			return &aoi.Primitive{Kind: aoi.LongLong}, p.Advance()
		}
		return &aoi.Primitive{Kind: aoi.Long}, nil
	case "unsigned":
		if err := p.Advance(); err != nil {
			return nil, err
		}
		switch {
		case p.At("short"):
			return &aoi.Primitive{Kind: aoi.UShort}, p.Advance()
		case p.At("long"):
			if err := p.Advance(); err != nil {
				return nil, err
			}
			if p.At("long") {
				return &aoi.Primitive{Kind: aoi.ULongLong}, p.Advance()
			}
			return &aoi.Primitive{Kind: aoi.ULong}, nil
		default:
			return nil, p.Errf("expected short or long after unsigned")
		}
	case "string":
		if err := p.Advance(); err != nil {
			return nil, err
		}
		if p.At("<") {
			if err := p.Advance(); err != nil {
				return nil, err
			}
			n, err := p.parseAngleBound()
			if err != nil {
				return nil, err
			}
			return &aoi.String{Bound: n}, nil
		}
		return &aoi.String{}, nil
	case "sequence":
		if err := p.Advance(); err != nil {
			return nil, err
		}
		if err := p.Expect("<"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		bound := uint32(0)
		if ok, err := p.Accept(","); err != nil {
			return nil, err
		} else if ok {
			if bound, err = p.parseAngleBound(); err != nil {
				return nil, err
			}
		} else if err := p.ExpectAngleClose(); err != nil {
			return nil, err
		}
		return &aoi.Sequence{Elem: elem, Bound: bound}, nil
	case "struct":
		t, err := p.parseStruct()
		if err != nil {
			return nil, err
		}
		if err := p.defineQualified(t.Name, t); err != nil {
			return nil, err
		}
		return t, nil
	case "union":
		t, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		if err := p.defineQualified(t.Name, t); err != nil {
			return nil, err
		}
		return t, nil
	case "enum":
		t, err := p.parseEnum()
		if err != nil {
			return nil, err
		}
		if err := p.defineQualified(t.Name, t); err != nil {
			return nil, err
		}
		return t, nil
	case "any":
		return nil, p.Errf("the any type is not supported")
	default:
		if corbaKeywords[tok.Text] {
			return nil, p.Unexpected("type")
		}
		name, err := p.parseScopedIdent()
		if err != nil {
			return nil, err
		}
		def, ok := p.lookupType(name)
		if !ok {
			return nil, p.Lex.Errf(tok, "undefined type %q", name)
		}
		if ir, isIface := def.(*aoi.InterfaceRef); isIface {
			return ir, nil
		}
		return &aoi.NamedRef{Name: name, Def: def}, nil
	}
}
