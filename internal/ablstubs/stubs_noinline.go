// Code generated by flick (flick/xdr). DO NOT EDIT.

package ablstubs

import (
	"encoding/binary"

	"flick/rt"
)

// MarshalBenchSendIntsNoInlineRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendIntsNoInlineRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSendIntsNoInlineRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendIntsNoInlineRequest(d *rt.Decoder) (v []int32, err error) {
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

// MarshalBenchSendIntsNoInlineReply encodes a successful reply (status 0).
func MarshalBenchSendIntsNoInlineReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendIntsNoInlineReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsNoInlineReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendRectsNoInlineRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendRectsNoInlineRequest(e *rt.Encoder, v []BenchRect) {
	xmNoInline_BenchRect(e, &v)
}

// UnmarshalBenchSendRectsNoInlineRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendRectsNoInlineRequest(d *rt.Decoder) (v []BenchRect, err error) {
	if !xuNoInline_BenchRect(d, &v) {
		err = d.Err()
		return
	}
	err = d.Err()
	return
}

// MarshalBenchSendRectsNoInlineReply encodes a successful reply (status 0).
func MarshalBenchSendRectsNoInlineReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendRectsNoInlineReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsNoInlineReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendDirsNoInlineRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendDirsNoInlineRequest(e *rt.Encoder, v []BenchDirEntry) {
	xmNoInline_BenchDirEntry(e, &v)
}

// UnmarshalBenchSendDirsNoInlineRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendDirsNoInlineRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
	if !xuNoInline_BenchDirEntry(d, &v) {
		err = d.Err()
		return
	}
	err = d.Err()
	return
}

// MarshalBenchSendDirsNoInlineReply encodes a successful reply (status 0).
func MarshalBenchSendDirsNoInlineReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendDirsNoInlineReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsNoInlineReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSumNoInlineRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSumNoInlineRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSumNoInlineRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSumNoInlineRequest(d *rt.Decoder) (v []int32, err error) {
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

// MarshalBenchSumNoInlineReply encodes a successful reply (status 0).
func MarshalBenchSumNoInlineReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// MarshalBenchSumNoInlineErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumNoInlineErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.Grow(4)
	e.PutU32BE(1)
	xmNoInlineBenchBadSize(e, &(*ex))
}

// UnmarshalBenchSumNoInlineReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumNoInlineReply(d *rt.Decoder) (ret int32, err error) {
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
		if !xuNoInlineBenchBadSize(d, &(*ex)) {
			err = d.Err()
			return
		}
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

// MarshalBenchListDirNoInlineRequest encodes the message payload (bounded class, xdr).
func MarshalBenchListDirNoInlineRequest(e *rt.Encoder, path string) {
	e.Grow(262)
	rt.CheckBound(len(path), 255)
	e.PutU32BE(uint32(len(path)))
	e.PutString(path)
	e.Align(4)
}

// UnmarshalBenchListDirNoInlineRequest decodes the message payload (bounded class, xdr).
func UnmarshalBenchListDirNoInlineRequest(d *rt.Decoder) (path string, err error) {
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

// MarshalBenchListDirNoInlineReply encodes a successful reply (status 0).
func MarshalBenchListDirNoInlineReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
	e.Grow(4)
	e.PutU32BE(0)
	xmNoInline_BenchDirEntry(e, &ret)
	e.Grow(7)
	e.Align(4)
	e.PutU32BE(uint32(total))
}

// UnmarshalBenchListDirNoInlineReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirNoInlineReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32BE()
	switch st {
	case 0:
		if !xuNoInline_BenchDirEntry(d, &ret) {
			err = d.Err()
			return
		}
		d.Align(4)
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

// MarshalBenchPingNoInlineRequest encodes the message payload (fixed class, xdr).
func MarshalBenchPingNoInlineRequest(e *rt.Encoder, nonce int32) {
	e.Grow(4)
	e.PutU32BE(uint32(nonce))
}

// UnmarshalBenchPingNoInlineRequest decodes the message payload (fixed class, xdr).
func UnmarshalBenchPingNoInlineRequest(d *rt.Decoder) (nonce int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	nonce = int32(d.U32BE())
	err = d.Err()
	return
}

func xmNoInline_BenchRect(e *rt.Encoder, v *[]BenchRect) {
	e.Grow(7)
	e.Align(4)
	e.PutU32BE(uint32(len((*v))))
	for i1 := 0; i1 < len((*v)); i1++ {
		xmNoInlineBenchRect(e, &(*v)[i1])
	}
}

func xmNoInlineBenchRect(e *rt.Encoder, v *BenchRect) {
	xmNoInlineBenchPoint(e, &(*v).Min)
	xmNoInlineBenchPoint(e, &(*v).Max)
}

func xmNoInlineBenchPoint(e *rt.Encoder, v *BenchPoint) {
	e.Grow(11)
	e.Align(4)
	b3 := e.Next(8)
	binary.BigEndian.PutUint32(b3[0:], uint32((*v).X))
	binary.BigEndian.PutUint32(b3[4:], uint32((*v).Y))
}

func xuNoInline_BenchRect(d *rt.Decoder, v *[]BenchRect) bool {
	d.Align(4)
	if !d.Ensure(4) {
		return false
	}
	n4, ok5 := d.Len(rt.BE, 0, false, 16)
	if !ok5 {
		return false
	}
	(*v) = make([]BenchRect, n4)
	for i1 := 0; i1 < len((*v)); i1++ {
		if !xuNoInlineBenchRect(d, &(*v)[i1]) {
			return false
		}
	}
	return d.Err() == nil
}

func xuNoInlineBenchRect(d *rt.Decoder, v *BenchRect) bool {
	if !xuNoInlineBenchPoint(d, &(*v).Min) {
		return false
	}
	if !xuNoInlineBenchPoint(d, &(*v).Max) {
		return false
	}
	return d.Err() == nil
}

func xuNoInlineBenchPoint(d *rt.Decoder, v *BenchPoint) bool {
	d.Align(4)
	if !d.Ensure(8) {
		return false
	}
	b6 := d.Next(8)
	(*v).X = int32(binary.BigEndian.Uint32(b6[0:]))
	(*v).Y = int32(binary.BigEndian.Uint32(b6[4:]))
	return d.Err() == nil
}

func xmNoInline_BenchDirEntry(e *rt.Encoder, v *[]BenchDirEntry) {
	e.Grow(7)
	e.Align(4)
	e.PutU32BE(uint32(len((*v))))
	for i1 := 0; i1 < len((*v)); i1++ {
		xmNoInlineBenchDirEntry(e, &(*v)[i1])
	}
}

func xmNoInlineBenchDirEntry(e *rt.Encoder, v *BenchDirEntry) {
	e.Grow(265)
	e.Align(4)
	rt.CheckBound(len((*v).Name), 255)
	e.PutU32BE(uint32(len((*v).Name)))
	e.PutString((*v).Name)
	e.Align(4)
	xmNoInlineBenchStatInfo(e, &(*v).Info)
}

func xmNoInlineBenchStatInfo(e *rt.Encoder, v *BenchStatInfo) {
	e.Grow(142)
	e.Align(4)
	rt.PutSlice32BE(e.Next(4*30), (*v).Fields[:])
	e.PutBytes((*v).Tag[:])
	e.Align(4)
}

func xuNoInline_BenchDirEntry(d *rt.Decoder, v *[]BenchDirEntry) bool {
	d.Align(4)
	if !d.Ensure(4) {
		return false
	}
	n7, ok8 := d.Len(rt.BE, 0, false, 140)
	if !ok8 {
		return false
	}
	(*v) = make([]BenchDirEntry, n7)
	for i1 := 0; i1 < len((*v)); i1++ {
		if !xuNoInlineBenchDirEntry(d, &(*v)[i1]) {
			return false
		}
	}
	return d.Err() == nil
}

func xuNoInlineBenchDirEntry(d *rt.Decoder, v *BenchDirEntry) bool {
	d.Align(4)
	if !d.Ensure(4) {
		return false
	}
	n9, ok10 := d.Len(rt.BE, 255, false, 1)
	if !ok10 {
		return false
	}
	if !d.EnsureDyn(0, 1, n9) {
		return false
	}
	(*v).Name = d.NextString(n9)
	d.Align(4)
	if !xuNoInlineBenchStatInfo(d, &(*v).Info) {
		return false
	}
	return d.Err() == nil
}

func xuNoInlineBenchStatInfo(d *rt.Decoder, v *BenchStatInfo) bool {
	d.Align(4)
	if !d.Ensure(136) {
		return false
	}
	rt.GetSlice32BE((*v).Fields[:], d.Next(4*30))
	copy((*v).Tag[:], d.Next(16))
	d.Align(4)
	return d.Err() == nil
}

func xmNoInlineBenchBadSize(e *rt.Encoder, v *BenchBadSize) {
	e.Grow(7)
	e.Align(4)
	e.PutU32BE(uint32((*v).Wanted))
}

func xuNoInlineBenchBadSize(d *rt.Decoder, v *BenchBadSize) bool {
	d.Align(4)
	if !d.Ensure(4) {
		return false
	}
	(*v).Wanted = int32(d.U32BE())
	return d.Err() == nil
}
