// Code generated by flick (flick/xdr). DO NOT EDIT.

package ablstubs

import (
	"encoding/binary"

	"flick/rt"
)

// MarshalBenchSendIntsNoMemcpyRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendIntsNoMemcpyRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(4)
		e.PutU32BE(uint32(v[i1]))
	}
}

// UnmarshalBenchSendIntsNoMemcpyRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendIntsNoMemcpyRequest(d *rt.Decoder) (v []int32, err error) {
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
	for i1 := 0; i1 < len(v); i1++ {
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		v[i1] = int32(d.U32BE())
	}
	err = d.Err()
	return
}

// MarshalBenchSendIntsNoMemcpyReply encodes a successful reply (status 0).
func MarshalBenchSendIntsNoMemcpyReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendIntsNoMemcpyReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsNoMemcpyReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendRectsNoMemcpyRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendRectsNoMemcpyRequest(e *rt.Encoder, v []BenchRect) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(16)
		b3 := e.Next(16)
		binary.BigEndian.PutUint32(b3[0:], uint32(v[i1].Min.X))
		binary.BigEndian.PutUint32(b3[4:], uint32(v[i1].Min.Y))
		binary.BigEndian.PutUint32(b3[8:], uint32(v[i1].Max.X))
		binary.BigEndian.PutUint32(b3[12:], uint32(v[i1].Max.Y))
	}
}

// UnmarshalBenchSendRectsNoMemcpyRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendRectsNoMemcpyRequest(d *rt.Decoder) (v []BenchRect, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n4, ok5 := d.Len(rt.BE, 0, false, 16)
	if !ok5 {
		err = d.Err()
		return
	}
	v = make([]BenchRect, n4)
	for i1 := 0; i1 < len(v); i1++ {
		if !d.Ensure(16) {
			err = d.Err()
			return
		}
		b6 := d.Next(16)
		v[i1].Min.X = int32(binary.BigEndian.Uint32(b6[0:]))
		v[i1].Min.Y = int32(binary.BigEndian.Uint32(b6[4:]))
		v[i1].Max.X = int32(binary.BigEndian.Uint32(b6[8:]))
		v[i1].Max.Y = int32(binary.BigEndian.Uint32(b6[12:]))
	}
	err = d.Err()
	return
}

// MarshalBenchSendRectsNoMemcpyReply encodes a successful reply (status 0).
func MarshalBenchSendRectsNoMemcpyReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendRectsNoMemcpyReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsNoMemcpyReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendDirsNoMemcpyRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendDirsNoMemcpyRequest(e *rt.Encoder, v []BenchDirEntry) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(404)
		e.Align(4)
		rt.CheckBound(len(v[i1].Name), 255)
		e.PutU32BE(uint32(len(v[i1].Name)))
		for i2 := 0; i2 < len(v[i1].Name); i2++ {
			e.PutU8(byte(v[i1].Name[i2]))
		}
		e.Align(4)
		for i3 := 0; i3 < len(v[i1].Info.Fields); i3++ {
			e.PutU32BE(uint32(v[i1].Info.Fields[i3]))
		}
		for i4 := 0; i4 < len(v[i1].Info.Tag); i4++ {
			e.PutU8(byte(v[i1].Info.Tag[i4]))
		}
		e.Align(4)
	}
}

// UnmarshalBenchSendDirsNoMemcpyRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendDirsNoMemcpyRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n7, ok8 := d.Len(rt.BE, 0, false, 140)
	if !ok8 {
		err = d.Err()
		return
	}
	v = make([]BenchDirEntry, n7)
	d.Slab(140 * n7)
	for i1 := 0; i1 < len(v); i1++ {
		d.Align(4)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		n9, ok10 := d.Len(rt.BE, 255, false, 1)
		if !ok10 {
			err = d.Err()
			return
		}
		b11 := d.SlabBytes(n9)
		for i2 := range b11 {
			if !d.Ensure(1) {
				err = d.Err()
				return
			}
			b11[i2] = byte(d.U8())
		}
		v[i1].Name = d.SlabString(b11)
		d.Align(4)
		if !d.Ensure(136) {
			err = d.Err()
			return
		}
		for i3 := 0; i3 < len(v[i1].Info.Fields); i3++ {
			v[i1].Info.Fields[i3] = int32(d.U32BE())
		}
		for i4 := 0; i4 < len(v[i1].Info.Tag); i4++ {
			v[i1].Info.Tag[i4] = byte(d.U8())
		}
		d.Align(4)
	}
	err = d.Err()
	return
}

// MarshalBenchSendDirsNoMemcpyReply encodes a successful reply (status 0).
func MarshalBenchSendDirsNoMemcpyReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendDirsNoMemcpyReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsNoMemcpyReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSumNoMemcpyRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSumNoMemcpyRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(4)
		e.PutU32BE(uint32(v[i1]))
	}
}

// UnmarshalBenchSumNoMemcpyRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSumNoMemcpyRequest(d *rt.Decoder) (v []int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n12, ok13 := d.Len(rt.BE, 0, false, 4)
	if !ok13 {
		err = d.Err()
		return
	}
	v = rt.Borrow[int32](d, n12)
	for i1 := 0; i1 < len(v); i1++ {
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		v[i1] = int32(d.U32BE())
	}
	err = d.Err()
	return
}

// MarshalBenchSumNoMemcpyReply encodes a successful reply (status 0).
func MarshalBenchSumNoMemcpyReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// MarshalBenchSumNoMemcpyErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumNoMemcpyErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.Grow(4)
	e.PutU32BE(1)
	e.Grow(4)
	e.PutU32BE(uint32((*ex).Wanted))
}

// UnmarshalBenchSumNoMemcpyReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumNoMemcpyReply(d *rt.Decoder) (ret int32, err error) {
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

// MarshalBenchListDirNoMemcpyRequest encodes the message payload (bounded class, xdr).
func MarshalBenchListDirNoMemcpyRequest(e *rt.Encoder, path string) {
	e.Grow(262)
	rt.CheckBound(len(path), 255)
	e.PutU32BE(uint32(len(path)))
	for i1 := 0; i1 < len(path); i1++ {
		e.PutU8(byte(path[i1]))
	}
	e.Align(4)
}

// UnmarshalBenchListDirNoMemcpyRequest decodes the message payload (bounded class, xdr).
func UnmarshalBenchListDirNoMemcpyRequest(d *rt.Decoder) (path string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n14, ok15 := d.Len(rt.BE, 255, false, 1)
	if !ok15 {
		err = d.Err()
		return
	}
	b16 := make([]byte, n14)
	for i1 := range b16 {
		if !d.Ensure(1) {
			err = d.Err()
			return
		}
		b16[i1] = byte(d.U8())
	}
	path = string(b16)
	d.Align(4)
	err = d.Err()
	return
}

// MarshalBenchListDirNoMemcpyReply encodes a successful reply (status 0).
func MarshalBenchListDirNoMemcpyReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(len(ret)))
	for i1 := 0; i1 < len(ret); i1++ {
		e.Grow(404)
		e.Align(4)
		rt.CheckBound(len(ret[i1].Name), 255)
		e.PutU32BE(uint32(len(ret[i1].Name)))
		for i2 := 0; i2 < len(ret[i1].Name); i2++ {
			e.PutU8(byte(ret[i1].Name[i2]))
		}
		e.Align(4)
		for i3 := 0; i3 < len(ret[i1].Info.Fields); i3++ {
			e.PutU32BE(uint32(ret[i1].Info.Fields[i3]))
		}
		for i4 := 0; i4 < len(ret[i1].Info.Tag); i4++ {
			e.PutU8(byte(ret[i1].Info.Tag[i4]))
		}
		e.Align(4)
	}
	e.Grow(4)
	e.PutU32BE(uint32(total))
}

// UnmarshalBenchListDirNoMemcpyReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirNoMemcpyReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
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
		n17, ok18 := d.Len(rt.BE, 0, false, 140)
		if !ok18 {
			err = d.Err()
			return
		}
		ret = make([]BenchDirEntry, n17)
		d.Slab(140*n17 + 4)
		for i1 := 0; i1 < len(ret); i1++ {
			d.Align(4)
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			n19, ok20 := d.Len(rt.BE, 255, false, 1)
			if !ok20 {
				err = d.Err()
				return
			}
			b21 := d.SlabBytes(n19)
			for i2 := range b21 {
				if !d.Ensure(1) {
					err = d.Err()
					return
				}
				b21[i2] = byte(d.U8())
			}
			ret[i1].Name = d.SlabString(b21)
			d.Align(4)
			if !d.Ensure(136) {
				err = d.Err()
				return
			}
			for i3 := 0; i3 < len(ret[i1].Info.Fields); i3++ {
				ret[i1].Info.Fields[i3] = int32(d.U32BE())
			}
			for i4 := 0; i4 < len(ret[i1].Info.Tag); i4++ {
				ret[i1].Info.Tag[i4] = byte(d.U8())
			}
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

// MarshalBenchPingNoMemcpyRequest encodes the message payload (fixed class, xdr).
func MarshalBenchPingNoMemcpyRequest(e *rt.Encoder, nonce int32) {
	e.Grow(4)
	e.PutU32BE(uint32(nonce))
}

// UnmarshalBenchPingNoMemcpyRequest decodes the message payload (fixed class, xdr).
func UnmarshalBenchPingNoMemcpyRequest(d *rt.Decoder) (nonce int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	nonce = int32(d.U32BE())
	err = d.Err()
	return
}
