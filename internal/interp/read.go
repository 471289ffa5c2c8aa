package interp

import (
	"fmt"
	"math"
	"reflect"

	"flick/internal/mint"
	"flick/internal/pres"
	"flick/internal/wire"
	"flick/rt"
)

func f32bits(f float32) uint32 { return math.Float32bits(f) }
func f64bits(f float64) uint64 { return math.Float64bits(f) }
func f32from(u uint32) float32 { return math.Float32frombits(u) }
func f64from(u uint64) float64 { return math.Float64frombits(u) }

// read decodes one presented value into v (an addressable Value).
func (m *Marshaler) read(d *rt.Decoder, n *pres.Node, v reflect.Value) error {
	n = n.Resolve()
	switch n.Kind {
	case pres.VoidKind:
		return nil
	case pres.DirectKind, pres.EnumKind:
		a, cv, ok := atomOf(n.Mint)
		if !ok {
			return fmt.Errorf("interp: non-atomic mint %s", n.Mint)
		}
		w := m.Format.WireSize(a)
		d.Align(m.Format.Align(a))
		u := m.getRaw(d, w)
		if cv != nil {
			if !d.CheckConst(u, *cv) {
				return d.Err()
			}
			return nil
		}
		setAtom(v, a, u)
		return nil
	case pres.CountedKind, pres.TerminatedKind:
		return m.readArray(d, n, v, -1)
	case pres.FixedArrayKind:
		arr := mint.Deref(n.Mint).(*mint.Array)
		return m.readArray(d, n, v, int(arr.FixedLen()))
	case pres.StructKind:
		for i, c := range n.Children {
			f := v.FieldByName(n.FieldNames[i])
			if !f.IsValid() {
				return fmt.Errorf("interp: %s: missing field %s", v.Type(), n.FieldNames[i])
			}
			if err := m.read(d, c, f); err != nil {
				return err
			}
		}
		return nil
	case pres.UnionKind:
		return m.readUnion(d, n, v)
	case pres.OptPtrKind:
		a := wire.Bool
		d.Align(m.Format.Align(a))
		u := m.getRaw(d, m.Format.WireSize(a))
		if d.Err() != nil {
			return d.Err()
		}
		if u == 0 {
			v.SetZero()
			return nil
		}
		nv := reflect.New(v.Type().Elem())
		if err := m.read(d, n.Elem(), nv.Elem()); err != nil {
			return err
		}
		v.Set(nv)
		return nil
	default:
		return fmt.Errorf("interp: unhandled pres kind %s", n.Kind)
	}
}

func setAtom(v reflect.Value, a wire.Atom, u uint64) {
	switch a.Kind {
	case wire.BoolAtom:
		v.SetBool(u != 0)
	case wire.Float:
		if a.Bits == 32 {
			v.SetFloat(float64(f32from(uint32(u))))
		} else {
			v.SetFloat(f64from(u))
		}
	case wire.SInt:
		v.SetInt(signExtend(u, a.Bits))
	default:
		switch v.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
			v.SetInt(signExtend(u, a.Bits))
		default:
			v.SetUint(u & mask(a.Bits))
		}
	}
}

func signExtend(u uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(u<<shift) >> shift
}

func mask(bits uint) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<bits - 1
}

func (m *Marshaler) readArray(d *rt.Decoder, n *pres.Node, v reflect.Value, fixed int) error {
	arr, ok := mint.Deref(n.Mint).(*mint.Array)
	if !ok {
		return fmt.Errorf("interp: array node over %s", n.Mint)
	}
	nul := m.Format.StringNul() && isChar(arr)
	count := fixed
	if fixed < 0 {
		d.Align(m.Format.Align(wire.U32))
		if !d.Ensure(4) {
			return d.Err()
		}
		var raw uint32
		if m.big() {
			raw = d.U32BE()
		} else {
			raw = d.U32LE()
		}
		c, okLen := d.CheckLen(raw, boundOf(arr), nul, 1)
		if !okLen {
			return d.Err()
		}
		count = c
	}
	elem := n.Elem().Resolve()
	ea, _, isAtom := atomOf(elem.Mint)

	// Strings decode through a byte scratch.
	if v.Kind() == reflect.String {
		if !d.Ensure(count) {
			return d.Err()
		}
		b := make([]byte, count)
		for i := range b {
			b[i] = d.U8()
		}
		v.SetString(string(b))
		if isAtom && m.Format.ArrayElemSize(ea) == 1 {
			if pad := m.Format.ArrayPad(); pad > 1 {
				d.Align(pad)
			}
		}
		if nul {
			if !d.Ensure(1) {
				return d.Err()
			}
			if !d.CheckConst(uint64(d.U8()), 0) {
				return d.Err()
			}
		}
		return nil
	}

	if fixed < 0 {
		if v.Kind() != reflect.Slice {
			return fmt.Errorf("interp: counted value decodes into %s", v.Kind())
		}
		v.Set(reflect.MakeSlice(v.Type(), count, count))
	}
	if isAtom {
		ew := m.Format.ArrayElemSize(ea)
		if ew == m.Format.WireSize(ea) {
			d.Align(m.Format.Align(ea))
		}
		for i := 0; i < count; i++ {
			u := m.getRaw(d, ew)
			if d.Err() != nil {
				return d.Err()
			}
			setAtom(v.Index(i), wire.Atom{Kind: ea.Kind, Bits: uint(ew) * 8}, u)
		}
		if ew == 1 {
			if pad := m.Format.ArrayPad(); pad > 1 {
				d.Align(pad)
			}
		}
	} else {
		for i := 0; i < count; i++ {
			if err := m.read(d, elem, v.Index(i)); err != nil {
				return err
			}
		}
	}
	if fixed < 0 && nul {
		if !d.Ensure(1) {
			return d.Err()
		}
		if !d.CheckConst(uint64(d.U8()), 0) {
			return d.Err()
		}
	}
	return nil
}

func (m *Marshaler) readUnion(d *rt.Decoder, n *pres.Node, v reflect.Value) error {
	u := mint.Deref(n.Mint).(*mint.Union)
	da, _, ok := atomOf(u.Discrim)
	if !ok {
		return fmt.Errorf("interp: bad union discriminator %s", u.Discrim)
	}
	dv := v.FieldByName("D")
	if !dv.IsValid() {
		return fmt.Errorf("interp: %s: union without D field", v.Type())
	}
	d.Align(m.Format.Align(da))
	raw := m.getRaw(d, m.Format.WireSize(da))
	if d.Err() != nil {
		return d.Err()
	}
	setAtom(dv, da, raw)
	tag := tagValue(dv)
	for i, c := range u.Cases {
		if c.Value == tag {
			return m.readArm(d, n, i, v)
		}
	}
	if u.Default != nil {
		return m.readArm(d, n, len(u.Cases), v)
	}
	return d.Fail(rt.ErrBadUnion)
}

func (m *Marshaler) readArm(d *rt.Decoder, n *pres.Node, idx int, v reflect.Value) error {
	if idx >= len(n.Children) {
		return nil
	}
	name := ""
	if idx < len(n.FieldNames) {
		name = n.FieldNames[idx]
	}
	if name == "" {
		return nil
	}
	f := v.FieldByName(name)
	if !f.IsValid() {
		return fmt.Errorf("interp: %s: missing union arm %s", v.Type(), name)
	}
	return m.read(d, n.Children[idx], f)
}
