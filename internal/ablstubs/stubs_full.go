// Code generated by flick (flick/xdr). DO NOT EDIT.

package ablstubs

import (
	"encoding/binary"

	"flick/rt"
)

// ObjectKey is an opaque object reference.
type ObjectKey = []byte

// BenchPoint presents IDL struct Bench::point.
type BenchPoint struct {
	X int32
	Y int32
}

// BenchRect presents IDL struct Bench::rect.
type BenchRect struct {
	Min BenchPoint
	Max BenchPoint
}

// BenchStatInfo presents IDL struct Bench::stat_info.
type BenchStatInfo struct {
	Fields [30]int32
	Tag    [16]byte
}

// BenchDirEntry presents IDL struct Bench::dir_entry.
type BenchDirEntry struct {
	Name string
	Info BenchStatInfo
}

// BenchBadSize presents IDL exception Bench::BadSize.
type BenchBadSize struct {
	Wanted int32
}

// Error implements the error interface.
func (e *BenchBadSize) Error() string { return "Bench::BadSize" }

// MarshalBenchSendIntsFullRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendIntsFullRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSendIntsFullRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendIntsFullRequest(d *rt.Decoder) (v []int32, err error) {
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

// MarshalBenchSendIntsFullReply encodes a successful reply (status 0).
func MarshalBenchSendIntsFullReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendIntsFullReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsFullReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendRectsFullRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendRectsFullRequest(e *rt.Encoder, v []BenchRect) {
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

// UnmarshalBenchSendRectsFullRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendRectsFullRequest(d *rt.Decoder) (v []BenchRect, err error) {
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

// MarshalBenchSendRectsFullReply encodes a successful reply (status 0).
func MarshalBenchSendRectsFullReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendRectsFullReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsFullReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendDirsFullRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendDirsFullRequest(e *rt.Encoder, v []BenchDirEntry) {
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

// UnmarshalBenchSendDirsFullRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendDirsFullRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
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
		if !d.EnsureDyn(0, 1, n9) {
			err = d.Err()
			return
		}
		v[i1].Name = d.NextString(n9)
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

// MarshalBenchSendDirsFullReply encodes a successful reply (status 0).
func MarshalBenchSendDirsFullReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendDirsFullReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsFullReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSumFullRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSumFullRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSumFullRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSumFullRequest(d *rt.Decoder) (v []int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n11, ok12 := d.Len(rt.BE, 0, false, 4)
	if !ok12 {
		err = d.Err()
		return
	}
	v = rt.Borrow[int32](d, n11)
	if !d.EnsureDyn(0, 4, n11) {
		err = d.Err()
		return
	}
	rt.GetSlice32BE(v, d.Next(4*len(v)))
	err = d.Err()
	return
}

// MarshalBenchSumFullReply encodes a successful reply (status 0).
func MarshalBenchSumFullReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// MarshalBenchSumFullErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumFullErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.Grow(4)
	e.PutU32BE(1)
	e.Grow(4)
	e.PutU32BE(uint32((*ex).Wanted))
}

// UnmarshalBenchSumFullReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumFullReply(d *rt.Decoder) (ret int32, err error) {
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

// MarshalBenchListDirFullRequest encodes the message payload (bounded class, xdr).
func MarshalBenchListDirFullRequest(e *rt.Encoder, path string) {
	e.Grow(262)
	rt.CheckBound(len(path), 255)
	e.PutU32BE(uint32(len(path)))
	e.PutString(path)
	e.Align(4)
}

// UnmarshalBenchListDirFullRequest decodes the message payload (bounded class, xdr).
func UnmarshalBenchListDirFullRequest(d *rt.Decoder) (path string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n13, ok14 := d.Len(rt.BE, 255, false, 1)
	if !ok14 {
		err = d.Err()
		return
	}
	if !d.EnsureDyn(0, 1, n13) {
		err = d.Err()
		return
	}
	path = string(d.Next(n13))
	d.Align(4)
	err = d.Err()
	return
}

// MarshalBenchListDirFullReply encodes a successful reply (status 0).
func MarshalBenchListDirFullReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
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

// UnmarshalBenchListDirFullReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirFullReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
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
		n15, ok16 := d.Len(rt.BE, 0, false, 140)
		if !ok16 {
			err = d.Err()
			return
		}
		ret = make([]BenchDirEntry, n15)
		d.Slab(140*n15 + 4)
		for i1 := 0; i1 < len(ret); i1++ {
			d.Align(4)
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			n17, ok18 := d.Len(rt.BE, 255, false, 1)
			if !ok18 {
				err = d.Err()
				return
			}
			if !d.EnsureDyn(0, 1, n17) {
				err = d.Err()
				return
			}
			ret[i1].Name = d.NextString(n17)
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

// MarshalBenchPingFullRequest encodes the message payload (fixed class, xdr).
func MarshalBenchPingFullRequest(e *rt.Encoder, nonce int32) {
	e.Grow(4)
	e.PutU32BE(uint32(nonce))
}

// UnmarshalBenchPingFullRequest decodes the message payload (fixed class, xdr).
func UnmarshalBenchPingFullRequest(d *rt.Decoder) (nonce int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	nonce = int32(d.U32BE())
	err = d.Err()
	return
}
