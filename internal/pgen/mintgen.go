// Package pgen implements Flick's presentation generators: the
// compilation stage that maps an AOI "network contract" onto a
// target-language "programmer's contract" (PRES-C).
//
// This file holds the shared base library: the AOI→MINT conversion used
// by every presentation generator, and the expansion of attributes into
// implicit get/set operations.
package pgen

import (
	"fmt"

	"flick/internal/aoi"
	"flick/internal/mint"
)

// MintBuilder converts AOI types to MINT message types, preserving
// sharing and handling recursion (through optional data) with TypeRefs.
type MintBuilder struct {
	memo map[aoi.Type]mint.Type
	// open tracks in-progress aggregates so recursive references get a
	// TypeRef placeholder.
	open map[aoi.Type]*mint.TypeRef
}

// NewMintBuilder returns an empty builder.
func NewMintBuilder() *MintBuilder {
	return &MintBuilder{
		memo: map[aoi.Type]mint.Type{},
		open: map[aoi.Type]*mint.TypeRef{},
	}
}

// Convert maps an AOI type onto its MINT message shape.
//
// The interesting cases: enums travel as unsigned 32-bit values (as XDR
// and CDR both do), strings are counted arrays of char, ONC optional data
// is a boolean-discriminated union (exactly its XDR encoding shape), and
// object references travel as counted opaque keys.
func (b *MintBuilder) Convert(t aoi.Type) mint.Type {
	if m, ok := b.memo[t]; ok {
		return m
	}
	if ref, ok := b.open[t]; ok {
		return ref
	}
	switch t := t.(type) {
	case *aoi.Primitive:
		m := primMint(t.Kind)
		b.memo[t] = m
		return m
	case *aoi.String:
		m := mint.NewString(t.Bound)
		b.memo[t] = m
		return m
	case *aoi.Sequence:
		ref := &mint.TypeRef{Name: "seq"}
		b.open[t] = ref
		m := mint.NewSeq(b.Convert(t.Elem), t.Bound)
		delete(b.open, t)
		ref.Target = m
		b.memo[t] = m
		return m
	case *aoi.Array:
		ref := &mint.TypeRef{Name: "arr"}
		b.open[t] = ref
		m := mint.NewFixed(b.Convert(t.Elem), t.Length)
		delete(b.open, t)
		ref.Target = m
		b.memo[t] = m
		return m
	case *aoi.Struct:
		ref := &mint.TypeRef{Name: t.Name}
		b.open[t] = ref
		st := &mint.Struct{Name: t.Name}
		for _, f := range t.Fields {
			st.Slots = append(st.Slots, mint.Slot{Name: f.Name, Type: b.Convert(f.Type)})
		}
		delete(b.open, t)
		ref.Target = st
		b.memo[t] = st
		return st
	case *aoi.Union:
		ref := &mint.TypeRef{Name: t.Name}
		b.open[t] = ref
		u := &mint.Union{Name: t.Name, Discrim: b.Convert(t.Discrim)}
		for _, c := range t.Cases {
			if c.IsDefault {
				u.Default = b.Convert(c.Field.Type)
				continue
			}
			body := b.Convert(c.Field.Type)
			for _, l := range c.Labels {
				u.Cases = append(u.Cases, mint.UnionCase{Value: l, Type: body})
			}
		}
		delete(b.open, t)
		ref.Target = u
		b.memo[t] = u
		return u
	case *aoi.Enum:
		m := mint.U32()
		b.memo[t] = m
		return m
	case *aoi.NamedRef:
		m := b.Convert(t.Def)
		b.memo[t] = m
		return m
	case *aoi.Optional:
		// XDR optional-data shape: bool, then the value when present.
		ref := &mint.TypeRef{Name: "opt"}
		b.open[t] = ref
		u := &mint.Union{
			Discrim: mint.Bool(),
			Cases: []mint.UnionCase{
				{Value: 0, Type: mint.VoidT()},
				{Value: 1, Type: b.Convert(t.Elem)},
			},
		}
		delete(b.open, t)
		ref.Target = u
		b.memo[t] = u
		return u
	case *aoi.InterfaceRef:
		// Object references travel as counted opaque object keys.
		m := mint.NewOpaque(0)
		b.memo[t] = m
		return m
	default:
		panic(fmt.Sprintf("pgen: unknown AOI type %T", t))
	}
}

func primMint(k aoi.PrimKind) mint.Type {
	switch k {
	case aoi.Void:
		return mint.VoidT()
	case aoi.Boolean:
		return mint.Bool()
	case aoi.Octet:
		return mint.U8()
	case aoi.Char:
		return mint.Char()
	case aoi.Short:
		return mint.I16()
	case aoi.UShort:
		return mint.U16()
	case aoi.Long:
		return mint.I32()
	case aoi.ULong:
		return mint.U32()
	case aoi.LongLong:
		return mint.I64()
	case aoi.ULongLong:
		return mint.U64()
	case aoi.Float:
		return mint.F32()
	case aoi.Double:
		return mint.F64()
	default:
		panic(fmt.Sprintf("pgen: unknown primitive %v", k))
	}
}

// BuildRequest returns the MINT payload of op's request message: a struct
// of the in and inout parameters in declaration order.
func (b *MintBuilder) BuildRequest(ifaceName string, op *aoi.Operation) *mint.Struct {
	st := &mint.Struct{Name: ifaceName + "." + op.Name + ".req"}
	for _, p := range op.Params {
		if p.Dir == aoi.In || p.Dir == aoi.InOut {
			st.Slots = append(st.Slots, mint.Slot{Name: p.Name, Type: b.Convert(p.Type)})
		}
	}
	return st
}

// BuildReply returns the MINT payload of op's reply message: a union
// discriminated by completion status. Case 0 carries the result and the
// out/inout parameters; case i+1 carries exception i's members.
func (b *MintBuilder) BuildReply(ifaceName string, op *aoi.Operation, excepts []*aoi.Exception) *mint.Union {
	ok := &mint.Struct{Name: ifaceName + "." + op.Name + ".results"}
	if hasResult(op) {
		ok.Slots = append(ok.Slots, mint.Slot{Name: "return", Type: b.Convert(op.Result)})
	}
	for _, p := range op.Params {
		if p.Dir == aoi.Out || p.Dir == aoi.InOut {
			ok.Slots = append(ok.Slots, mint.Slot{Name: p.Name, Type: b.Convert(p.Type)})
		}
	}
	u := &mint.Union{
		Name:    ifaceName + "." + op.Name + ".reply",
		Discrim: mint.U32(),
		Cases:   []mint.UnionCase{{Value: 0, Type: ok}},
	}
	for i, exName := range op.Raises {
		ex := findExcept(excepts, exName)
		if ex == nil {
			continue
		}
		body := &mint.Struct{Name: "exception." + ex.Name}
		for _, f := range ex.Fields {
			body.Slots = append(body.Slots, mint.Slot{Name: f.Name, Type: b.Convert(f.Type)})
		}
		u.Cases = append(u.Cases, mint.UnionCase{Value: int64(i) + 1, Type: body})
	}
	return u
}

func findExcept(excepts []*aoi.Exception, name string) *aoi.Exception {
	for _, e := range excepts {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// EffectiveOps returns an interface's operations with attributes expanded
// into implicit _get_/_set_ operations, mirroring the CORBA mapping.
// Codes for the synthesized operations continue after the declared ones.
func EffectiveOps(it *aoi.Interface) []*aoi.Operation {
	ops := make([]*aoi.Operation, 0, len(it.Ops)+2*len(it.Attrs))
	ops = append(ops, it.Ops...)
	next := uint32(0)
	for _, op := range it.Ops {
		if op.Code >= next {
			next = op.Code + 1
		}
	}
	for _, at := range it.Attrs {
		ops = append(ops, &aoi.Operation{
			Name: "_get_" + at.Name,
			Code: next,
			// Reading an attribute is idempotent by construction; the
			// runtime may re-send a lost _get_ freely.
			Idempotent: true,
			Result:     at.Type,
		})
		next++
		if !at.ReadOnly {
			ops = append(ops, &aoi.Operation{
				Name:   "_set_" + at.Name,
				Code:   next,
				Result: &aoi.Primitive{Kind: aoi.Void},
				Params: []aoi.Param{{Name: "value", Dir: aoi.In, Type: at.Type}},
			})
			next++
		}
	}
	return ops
}
