// Code generated by flick (flick/xdr). DO NOT EDIT.

package ablstubs

import (
	"flick/rt"
)

// MarshalBenchSendIntsNoGroupRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendIntsNoGroupRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSendIntsNoGroupRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendIntsNoGroupRequest(d *rt.Decoder) (v []int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n1, ok2 := d.Len(rt.BE, 0, false, 4)
	if !ok2 {
		err = d.Err()
		return
	}
	v = make([]int32, n1)
	if !d.EnsureDyn(0, 4, n1) {
		err = d.Err()
		return
	}
	rt.GetSlice32BE(v, d.Next(4*len(v)))
	err = d.Err()
	return
}

// MarshalBenchSendIntsNoGroupReply encodes a successful reply (status 0).
func MarshalBenchSendIntsNoGroupReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendIntsNoGroupReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsNoGroupReply(d *rt.Decoder) (err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32BE()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// MarshalBenchSendRectsNoGroupRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendRectsNoGroupRequest(e *rt.Encoder, v []BenchRect) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(4)
		e.PutU32BE(uint32(v[i1].Min.X))
		e.Grow(4)
		e.PutU32BE(uint32(v[i1].Min.Y))
		e.Grow(4)
		e.PutU32BE(uint32(v[i1].Max.X))
		e.Grow(4)
		e.PutU32BE(uint32(v[i1].Max.Y))
	}
}

// UnmarshalBenchSendRectsNoGroupRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendRectsNoGroupRequest(d *rt.Decoder) (v []BenchRect, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n3, ok4 := d.Len(rt.BE, 0, false, 16)
	if !ok4 {
		err = d.Err()
		return
	}
	v = make([]BenchRect, n3)
	for i1 := 0; i1 < len(v); i1++ {
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		v[i1].Min.X = int32(d.U32BE())
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		v[i1].Min.Y = int32(d.U32BE())
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		v[i1].Max.X = int32(d.U32BE())
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		v[i1].Max.Y = int32(d.U32BE())
	}
	err = d.Err()
	return
}

// MarshalBenchSendRectsNoGroupReply encodes a successful reply (status 0).
func MarshalBenchSendRectsNoGroupReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendRectsNoGroupReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsNoGroupReply(d *rt.Decoder) (err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32BE()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// MarshalBenchSendDirsNoGroupRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendDirsNoGroupRequest(e *rt.Encoder, v []BenchDirEntry) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Align(4)
		e.Grow(4)
		rt.CheckBound(len(v[i1].Name), 255)
		e.PutU32BE(uint32(len(v[i1].Name)))
		e.GrowDyn(0, 1, len(v[i1].Name))
		e.PutString(v[i1].Name)
		e.Align(4)
		e.Grow(120)
		rt.PutSlice32BE(e.Next(4*30), v[i1].Info.Fields[:])
		e.Grow(16)
		e.PutBytes(v[i1].Info.Tag[:])
		e.Align(4)
	}
}

// UnmarshalBenchSendDirsNoGroupRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendDirsNoGroupRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n5, ok6 := d.Len(rt.BE, 0, false, 140)
	if !ok6 {
		err = d.Err()
		return
	}
	v = make([]BenchDirEntry, n5)
	d.Slab(140 * n5)
	for i1 := 0; i1 < len(v); i1++ {
		d.Align(4)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		n7, ok8 := d.Len(rt.BE, 255, false, 1)
		if !ok8 {
			err = d.Err()
			return
		}
		if !d.EnsureDyn(0, 1, n7) {
			err = d.Err()
			return
		}
		v[i1].Name = d.NextString(n7)
		d.Align(4)
		if !d.Ensure(120) {
			err = d.Err()
			return
		}
		rt.GetSlice32BE(v[i1].Info.Fields[:], d.Next(4*30))
		if !d.Ensure(16) {
			err = d.Err()
			return
		}
		copy(v[i1].Info.Tag[:], d.Next(16))
		d.Align(4)
	}
	err = d.Err()
	return
}

// MarshalBenchSendDirsNoGroupReply encodes a successful reply (status 0).
func MarshalBenchSendDirsNoGroupReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendDirsNoGroupReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsNoGroupReply(d *rt.Decoder) (err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32BE()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// MarshalBenchSumNoGroupRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSumNoGroupRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSumNoGroupRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSumNoGroupRequest(d *rt.Decoder) (v []int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n9, ok10 := d.Len(rt.BE, 0, false, 4)
	if !ok10 {
		err = d.Err()
		return
	}
	v = rt.Borrow[int32](d, n9)
	if !d.EnsureDyn(0, 4, n9) {
		err = d.Err()
		return
	}
	rt.GetSlice32BE(v, d.Next(4*len(v)))
	err = d.Err()
	return
}

// MarshalBenchSumNoGroupReply encodes a successful reply (status 0).
func MarshalBenchSumNoGroupReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// MarshalBenchSumNoGroupErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumNoGroupErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.Grow(4)
	e.PutU32BE(1)
	e.Grow(4)
	e.PutU32BE(uint32((*ex).Wanted))
}

// UnmarshalBenchSumNoGroupReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumNoGroupReply(d *rt.Decoder) (ret int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32BE()
	switch st {
	case 0:
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		ret = int32(d.U32BE())
		err = d.Err()
		return
	case 1:
		ex := new(BenchBadSize)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		(*ex).Wanted = int32(d.U32BE())
		if d.Err() != nil {
			err = d.Err()
			return
		}
		err = ex
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// MarshalBenchListDirNoGroupRequest encodes the message payload (bounded class, xdr).
func MarshalBenchListDirNoGroupRequest(e *rt.Encoder, path string) {
	e.Grow(4)
	rt.CheckBound(len(path), 255)
	e.PutU32BE(uint32(len(path)))
	e.GrowDyn(0, 1, len(path))
	e.PutString(path)
	e.Align(4)
}

// UnmarshalBenchListDirNoGroupRequest decodes the message payload (bounded class, xdr).
func UnmarshalBenchListDirNoGroupRequest(d *rt.Decoder) (path string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n11, ok12 := d.Len(rt.BE, 255, false, 1)
	if !ok12 {
		err = d.Err()
		return
	}
	if !d.EnsureDyn(0, 1, n11) {
		err = d.Err()
		return
	}
	path = string(d.Next(n11))
	d.Align(4)
	err = d.Err()
	return
}

// MarshalBenchListDirNoGroupReply encodes a successful reply (status 0).
func MarshalBenchListDirNoGroupReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(len(ret)))
	for i1 := 0; i1 < len(ret); i1++ {
		e.Align(4)
		e.Grow(4)
		rt.CheckBound(len(ret[i1].Name), 255)
		e.PutU32BE(uint32(len(ret[i1].Name)))
		e.GrowDyn(0, 1, len(ret[i1].Name))
		e.PutString(ret[i1].Name)
		e.Align(4)
		e.Grow(120)
		rt.PutSlice32BE(e.Next(4*30), ret[i1].Info.Fields[:])
		e.Grow(16)
		e.PutBytes(ret[i1].Info.Tag[:])
		e.Align(4)
	}
	e.Grow(4)
	e.PutU32BE(uint32(total))
}

// UnmarshalBenchListDirNoGroupReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirNoGroupReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32BE()
	switch st {
	case 0:
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		n13, ok14 := d.Len(rt.BE, 0, false, 140)
		if !ok14 {
			err = d.Err()
			return
		}
		ret = make([]BenchDirEntry, n13)
		d.Slab(140*n13 + 4)
		for i1 := 0; i1 < len(ret); i1++ {
			d.Align(4)
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			n15, ok16 := d.Len(rt.BE, 255, false, 1)
			if !ok16 {
				err = d.Err()
				return
			}
			if !d.EnsureDyn(0, 1, n15) {
				err = d.Err()
				return
			}
			ret[i1].Name = d.NextString(n15)
			d.Align(4)
			if !d.Ensure(120) {
				err = d.Err()
				return
			}
			rt.GetSlice32BE(ret[i1].Info.Fields[:], d.Next(4*30))
			if !d.Ensure(16) {
				err = d.Err()
				return
			}
			copy(ret[i1].Info.Tag[:], d.Next(16))
			d.Align(4)
		}
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		total = int32(d.U32BE())
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// MarshalBenchPingNoGroupRequest encodes the message payload (fixed class, xdr).
func MarshalBenchPingNoGroupRequest(e *rt.Encoder, nonce int32) {
	e.Grow(4)
	e.PutU32BE(uint32(nonce))
}

// UnmarshalBenchPingNoGroupRequest decodes the message payload (fixed class, xdr).
func UnmarshalBenchPingNoGroupRequest(d *rt.Decoder) (nonce int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	nonce = int32(d.U32BE())
	err = d.Err()
	return
}
