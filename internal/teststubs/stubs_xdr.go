// Code generated by flick (flick/xdr). DO NOT EDIT.

package teststubs

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

// MarshalBenchSendIntsXDRRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendIntsXDRRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSendIntsXDRRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendIntsXDRRequest(d *rt.Decoder) (v []int32, err error) {
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

// MarshalBenchSendIntsXDRReply encodes a successful reply (status 0).
func MarshalBenchSendIntsXDRReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendIntsXDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsXDRReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendRectsXDRRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendRectsXDRRequest(e *rt.Encoder, v []BenchRect) {
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

// UnmarshalBenchSendRectsXDRRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendRectsXDRRequest(d *rt.Decoder) (v []BenchRect, err error) {
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

// MarshalBenchSendRectsXDRReply encodes a successful reply (status 0).
func MarshalBenchSendRectsXDRReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendRectsXDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsXDRReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendDirsXDRRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendDirsXDRRequest(e *rt.Encoder, v []BenchDirEntry) {
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

// UnmarshalBenchSendDirsXDRRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendDirsXDRRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
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

// MarshalBenchSendDirsXDRReply encodes a successful reply (status 0).
func MarshalBenchSendDirsXDRReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBenchSendDirsXDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsXDRReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSumXDRRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSumXDRRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32BE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32BE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSumXDRRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSumXDRRequest(d *rt.Decoder) (v []int32, err error) {
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

// MarshalBenchSumXDRReply encodes a successful reply (status 0).
func MarshalBenchSumXDRReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// MarshalBenchSumXDRErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumXDRErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.Grow(4)
	e.PutU32BE(1)
	e.Grow(4)
	e.PutU32BE(uint32((*ex).Wanted))
}

// UnmarshalBenchSumXDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumXDRReply(d *rt.Decoder) (ret int32, err error) {
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

// MarshalBenchListDirXDRRequest encodes the message payload (bounded class, xdr).
func MarshalBenchListDirXDRRequest(e *rt.Encoder, path string) {
	e.Grow(262)
	rt.CheckBound(len(path), 255)
	e.PutU32BE(uint32(len(path)))
	e.PutString(path)
	e.Align(4)
}

// UnmarshalBenchListDirXDRRequest decodes the message payload (bounded class, xdr).
func UnmarshalBenchListDirXDRRequest(d *rt.Decoder) (path string, err error) {
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

// MarshalBenchListDirXDRReply encodes a successful reply (status 0).
func MarshalBenchListDirXDRReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
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

// UnmarshalBenchListDirXDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirXDRReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
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

// MarshalBenchPingXDRRequest encodes the message payload (fixed class, xdr).
func MarshalBenchPingXDRRequest(e *rt.Encoder, nonce int32) {
	e.Grow(4)
	e.PutU32BE(uint32(nonce))
}

// UnmarshalBenchPingXDRRequest decodes the message payload (fixed class, xdr).
func UnmarshalBenchPingXDRRequest(d *rt.Decoder) (nonce int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	nonce = int32(d.U32BE())
	err = d.Err()
	return
}

// BenchXDRClient invokes Bench operations over a connection.
type BenchXDRClient struct {
	C *rt.Client
}

// NewBenchXDRClient wraps conn with the xdr message protocol.
func NewBenchXDRClient(conn rt.Conn) *BenchXDRClient {
	c := rt.NewClient(conn, rt.ONC{})
	c.Prog = 0
	c.Vers = 0
	return &BenchXDRClient{C: c}
}

// SendInts invokes the send_ints operation.
func (c *BenchXDRClient) SendInts(v []int32) (err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(0, "send_ints", false, false, func(e *rt.Encoder) {
		MarshalBenchSendIntsXDRRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendIntsXDRReply(d)
	d.Release()
	return
}

// SendRects invokes the send_rects operation.
func (c *BenchXDRClient) SendRects(v []BenchRect) (err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(1, "send_rects", false, false, func(e *rt.Encoder) {
		MarshalBenchSendRectsXDRRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendRectsXDRReply(d)
	d.Release()
	return
}

// SendDirs invokes the send_dirs operation.
func (c *BenchXDRClient) SendDirs(v []BenchDirEntry) (err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(2, "send_dirs", false, false, func(e *rt.Encoder) {
		MarshalBenchSendDirsXDRRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendDirsXDRReply(d)
	d.Release()
	return
}

// Sum invokes the sum operation.
func (c *BenchXDRClient) Sum(v []int32) (ret int32, err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(3, "sum", false, true, func(e *rt.Encoder) {
		MarshalBenchSumXDRRequest(e, v)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalBenchSumXDRReply(d)
	d.Release()
	return
}

// ListDir invokes the list_dir operation.
func (c *BenchXDRClient) ListDir(path string) (ret []BenchDirEntry, total int32, err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(4, "list_dir", false, true, func(e *rt.Encoder) {
		MarshalBenchListDirXDRRequest(e, path)
	})
	if err != nil {
		return
	}
	ret, total, err = UnmarshalBenchListDirXDRReply(d)
	d.Release()
	return
}

// Ping invokes the ping operation.
func (c *BenchXDRClient) Ping(nonce int32) (err error) {
	_, err = c.C.CallIdem(5, "ping", true, false, func(e *rt.Encoder) {
		MarshalBenchPingXDRRequest(e, nonce)
	})
	if err != nil {
		return
	}
	return
}

// BenchXDRServer is the interface a Bench implementation provides.
//
// The arguments named below are valid only until the method returns:
// they alias the request's receive buffer or storage the runtime lends
// to a later request. An implementation that keeps the values copies
// them (append([]int32(nil), v...)), and must not store the argument
// itself, send it or hand it to a goroutine.
//
//flick:borrowed Sum v
type BenchXDRServer interface {
	SendInts(v []int32) (err error)
	SendRects(v []BenchRect) (err error)
	SendDirs(v []BenchDirEntry) (err error)
	Sum(v []int32) (ret int32, err error)
	ListDir(path string) (ret []BenchDirEntry, total int32, err error)
	Ping(nonce int32) (err error)
}

// RegisterBenchXDR installs the BenchXDR dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterBenchXDR(s *rt.Server, impl BenchXDRServer) {
	s.Register(0, 0, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		switch h.Proc {
		case 0:
			h.OpName = "send_ints"
			a_v, argErr := UnmarshalBenchSendIntsXDRRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendInts(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendIntsXDRReply(e)
			return nil
		case 1:
			h.OpName = "send_rects"
			a_v, argErr := UnmarshalBenchSendRectsXDRRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendRects(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendRectsXDRReply(e)
			return nil
		case 2:
			h.OpName = "send_dirs"
			a_v, argErr := UnmarshalBenchSendDirsXDRRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendDirs(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendDirsXDRReply(e)
			return nil
		case 3:
			h.OpName = "sum"
			a_v, argErr := UnmarshalBenchSumXDRRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Sum(a_v)
			if workErr != nil {
				if ex, ok := workErr.(*BenchBadSize); ok {
					MarshalBenchSumXDRErrBadSize(e, ex)
					return nil
				}
				return workErr
			}
			MarshalBenchSumXDRReply(e, r_ret)
			d.EndBorrow()
			return nil
		case 4:
			h.OpName = "list_dir"
			a_path, argErr := UnmarshalBenchListDirXDRRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, r_total, workErr := impl.ListDir(a_path)
			if workErr != nil {
				return workErr
			}
			MarshalBenchListDirXDRReply(e, r_ret, r_total)
			return nil
		case 5:
			h.OpName = "ping"
			h.OneWay = true
			a_nonce, argErr := UnmarshalBenchPingXDRRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.Ping(a_nonce)
			if workErr != nil {
				return workErr
			}
			return nil
		default:
			return rt.ErrNoSuchOp
		}
	})
}
