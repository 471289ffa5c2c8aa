// Code generated by flick (flick/xdr). DO NOT EDIT.

package ablstubs

import (
	"flick/rt"
)

// MarshalBenchSendIntsNoChunkRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendIntsNoChunkRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSendIntsNoChunkRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendIntsNoChunkRequest(d *rt.Decoder) (v []int32, err error) {
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

// MarshalBenchSendIntsNoChunkReply encodes a successful reply (status 0).
func MarshalBenchSendIntsNoChunkReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendIntsNoChunkReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsNoChunkReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendRectsNoChunkRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendRectsNoChunkRequest(e *rt.Encoder, v []BenchRect) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(16)
		e.PutU32BE(uint32(v[i1].Min.X))
		e.PutU32BE(uint32(v[i1].Min.Y))
		e.PutU32BE(uint32(v[i1].Max.X))
		e.PutU32BE(uint32(v[i1].Max.Y))
	}
}

// UnmarshalBenchSendRectsNoChunkRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendRectsNoChunkRequest(d *rt.Decoder) (v []BenchRect, err error) {
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
		if !d.Ensure(16) {
			err = d.Err()
			return
		}
		v[i1].Min.X = int32(d.U32BE())
		v[i1].Min.Y = int32(d.U32BE())
		v[i1].Max.X = int32(d.U32BE())
		v[i1].Max.Y = int32(d.U32BE())
	}
	err = d.Err()
	return
}

// MarshalBenchSendRectsNoChunkReply encodes a successful reply (status 0).
func MarshalBenchSendRectsNoChunkReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendRectsNoChunkReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsNoChunkReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendDirsNoChunkRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendDirsNoChunkRequest(e *rt.Encoder, v []BenchDirEntry) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(404)
		e.Align(4)
		rt.CheckBound(len(v[i1].Name), 255)
		e.PutU32BE(uint32(len(v[i1].Name)))
		e.PutString(v[i1].Name)
		e.Align(4)
		rt.PutSlice32BE(e.Next(4*30), v[i1].Info.Fields[:])
		e.PutBytes(v[i1].Info.Tag[:])
		e.Align(4)
	}
}

// UnmarshalBenchSendDirsNoChunkRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendDirsNoChunkRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
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
		if !d.Ensure(136) {
			err = d.Err()
			return
		}
		rt.GetSlice32BE(v[i1].Info.Fields[:], d.Next(4*30))
		copy(v[i1].Info.Tag[:], d.Next(16))
		d.Align(4)
	}
	err = d.Err()
	return
}

// MarshalBenchSendDirsNoChunkReply encodes a successful reply (status 0).
func MarshalBenchSendDirsNoChunkReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendDirsNoChunkReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsNoChunkReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSumNoChunkRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSumNoChunkRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSumNoChunkRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSumNoChunkRequest(d *rt.Decoder) (v []int32, err error) {
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

// MarshalBenchSumNoChunkReply encodes a successful reply (status 0).
func MarshalBenchSumNoChunkReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// MarshalBenchSumNoChunkErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumNoChunkErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.Grow(4)
	e.PutU32BE(1)
	e.Grow(4)
	e.PutU32BE(uint32((*ex).Wanted))
}

// UnmarshalBenchSumNoChunkReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumNoChunkReply(d *rt.Decoder) (ret int32, err error) {
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

// MarshalBenchListDirNoChunkRequest encodes the message payload (bounded class, xdr).
func MarshalBenchListDirNoChunkRequest(e *rt.Encoder, path string) {
	e.Grow(262)
	rt.CheckBound(len(path), 255)
	e.PutU32BE(uint32(len(path)))
	e.PutString(path)
	e.Align(4)
}

// UnmarshalBenchListDirNoChunkRequest decodes the message payload (bounded class, xdr).
func UnmarshalBenchListDirNoChunkRequest(d *rt.Decoder) (path string, err error) {
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

// MarshalBenchListDirNoChunkReply encodes a successful reply (status 0).
func MarshalBenchListDirNoChunkReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(len(ret)))
	for i1 := 0; i1 < len(ret); i1++ {
		e.Grow(404)
		e.Align(4)
		rt.CheckBound(len(ret[i1].Name), 255)
		e.PutU32BE(uint32(len(ret[i1].Name)))
		e.PutString(ret[i1].Name)
		e.Align(4)
		rt.PutSlice32BE(e.Next(4*30), ret[i1].Info.Fields[:])
		e.PutBytes(ret[i1].Info.Tag[:])
		e.Align(4)
	}
	e.Grow(4)
	e.PutU32BE(uint32(total))
}

// UnmarshalBenchListDirNoChunkReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirNoChunkReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
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
			if !d.Ensure(136) {
				err = d.Err()
				return
			}
			rt.GetSlice32BE(ret[i1].Info.Fields[:], d.Next(4*30))
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

// MarshalBenchPingNoChunkRequest encodes the message payload (fixed class, xdr).
func MarshalBenchPingNoChunkRequest(e *rt.Encoder, nonce int32) {
	e.Grow(4)
	e.PutU32BE(uint32(nonce))
}

// UnmarshalBenchPingNoChunkRequest decodes the message payload (fixed class, xdr).
func UnmarshalBenchPingNoChunkRequest(d *rt.Decoder) (nonce int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	nonce = int32(d.U32BE())
	err = d.Err()
	return
}
