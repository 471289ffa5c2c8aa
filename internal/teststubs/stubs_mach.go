// Code generated by flick (flick/mach3). DO NOT EDIT.

package teststubs

import (
	"encoding/binary"

	"flick/rt"
)

// MarshalBenchSendIntsMachRequest encodes the message payload (unbounded class, mach3).
func MarshalBenchSendIntsMachRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32LE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32LE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSendIntsMachRequest decodes the message payload (unbounded class, mach3).
func UnmarshalBenchSendIntsMachRequest(d *rt.Decoder) (v []int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n1, ok2 := d.Len(rt.LE, 0, false, 4)
	if !ok2 {
		err = d.Err()
		return
	}
	v = make([]int32, n1)
	if !d.EnsureDyn(0, 4, n1) {
		err = d.Err()
		return
	}
	rt.GetSlice32LE(v, d.Next(4*len(v)))
	err = d.Err()
	return
}

// MarshalBenchSendIntsMachReply encodes a successful reply (status 0).
func MarshalBenchSendIntsMachReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32LE(0)
}

// UnmarshalBenchSendIntsMachReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsMachReply(d *rt.Decoder) (err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32LE()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// MarshalBenchSendRectsMachRequest encodes the message payload (unbounded class, mach3).
func MarshalBenchSendRectsMachRequest(e *rt.Encoder, v []BenchRect) {
	e.Grow(4)
	e.PutU32LE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(16)
		b3 := e.Next(16)
		binary.LittleEndian.PutUint32(b3[0:], uint32(v[i1].Min.X))
		binary.LittleEndian.PutUint32(b3[4:], uint32(v[i1].Min.Y))
		binary.LittleEndian.PutUint32(b3[8:], uint32(v[i1].Max.X))
		binary.LittleEndian.PutUint32(b3[12:], uint32(v[i1].Max.Y))
	}
}

// UnmarshalBenchSendRectsMachRequest decodes the message payload (unbounded class, mach3).
func UnmarshalBenchSendRectsMachRequest(d *rt.Decoder) (v []BenchRect, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n4, ok5 := d.Len(rt.LE, 0, false, 16)
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
		v[i1].Min.X = int32(binary.LittleEndian.Uint32(b6[0:]))
		v[i1].Min.Y = int32(binary.LittleEndian.Uint32(b6[4:]))
		v[i1].Max.X = int32(binary.LittleEndian.Uint32(b6[8:]))
		v[i1].Max.Y = int32(binary.LittleEndian.Uint32(b6[12:]))
	}
	err = d.Err()
	return
}

// MarshalBenchSendRectsMachReply encodes a successful reply (status 0).
func MarshalBenchSendRectsMachReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32LE(0)
}

// UnmarshalBenchSendRectsMachReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsMachReply(d *rt.Decoder) (err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32LE()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// MarshalBenchSendDirsMachRequest encodes the message payload (unbounded class, mach3).
func MarshalBenchSendDirsMachRequest(e *rt.Encoder, v []BenchDirEntry) {
	e.Grow(4)
	e.PutU32LE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(404)
		e.Align(4)
		rt.CheckBound(len(v[i1].Name), 255)
		e.PutU32LE(uint32(len(v[i1].Name)))
		e.PutString(v[i1].Name)
		e.Align(4)
		rt.PutSlice32LE(e.Next(4*30), v[i1].Info.Fields[:])
		e.PutBytes(v[i1].Info.Tag[:])
		e.Align(4)
	}
}

// UnmarshalBenchSendDirsMachRequest decodes the message payload (unbounded class, mach3).
func UnmarshalBenchSendDirsMachRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n7, ok8 := d.Len(rt.LE, 0, false, 140)
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
		n9, ok10 := d.Len(rt.LE, 255, false, 1)
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
		rt.GetSlice32LE(v[i1].Info.Fields[:], d.Next(4*30))
		copy(v[i1].Info.Tag[:], d.Next(16))
		d.Align(4)
	}
	err = d.Err()
	return
}

// MarshalBenchSendDirsMachReply encodes a successful reply (status 0).
func MarshalBenchSendDirsMachReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32LE(0)
}

// UnmarshalBenchSendDirsMachReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsMachReply(d *rt.Decoder) (err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32LE()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// MarshalBenchSumMachRequest encodes the message payload (unbounded class, mach3).
func MarshalBenchSumMachRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32LE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32LE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSumMachRequest decodes the message payload (unbounded class, mach3).
func UnmarshalBenchSumMachRequest(d *rt.Decoder) (v []int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n11, ok12 := d.Len(rt.LE, 0, false, 4)
	if !ok12 {
		err = d.Err()
		return
	}
	v = rt.Borrow[int32](d, n11)
	if !d.EnsureDyn(0, 4, n11) {
		err = d.Err()
		return
	}
	rt.GetSlice32LE(v, d.Next(4*len(v)))
	err = d.Err()
	return
}

// MarshalBenchSumMachReply encodes a successful reply (status 0).
func MarshalBenchSumMachReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32LE(0)
	e.Grow(4)
	e.PutU32LE(uint32(ret))
}

// MarshalBenchSumMachErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumMachErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.Grow(4)
	e.PutU32LE(1)
	e.Grow(4)
	e.PutU32LE(uint32((*ex).Wanted))
}

// UnmarshalBenchSumMachReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumMachReply(d *rt.Decoder) (ret int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32LE()
	switch st {
	case 0:
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		ret = int32(d.U32LE())
		err = d.Err()
		return
	case 1:
		ex := new(BenchBadSize)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		(*ex).Wanted = int32(d.U32LE())
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

// MarshalBenchListDirMachRequest encodes the message payload (bounded class, mach3).
func MarshalBenchListDirMachRequest(e *rt.Encoder, path string) {
	e.Grow(262)
	rt.CheckBound(len(path), 255)
	e.PutU32LE(uint32(len(path)))
	e.PutString(path)
	e.Align(4)
}

// UnmarshalBenchListDirMachRequest decodes the message payload (bounded class, mach3).
func UnmarshalBenchListDirMachRequest(d *rt.Decoder) (path string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n13, ok14 := d.Len(rt.LE, 255, false, 1)
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

// MarshalBenchListDirMachReply encodes a successful reply (status 0).
func MarshalBenchListDirMachReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
	e.Grow(4)
	e.PutU32LE(0)
	e.Grow(4)
	e.PutU32LE(uint32(len(ret)))
	for i1 := 0; i1 < len(ret); i1++ {
		e.Grow(404)
		e.Align(4)
		rt.CheckBound(len(ret[i1].Name), 255)
		e.PutU32LE(uint32(len(ret[i1].Name)))
		e.PutString(ret[i1].Name)
		e.Align(4)
		rt.PutSlice32LE(e.Next(4*30), ret[i1].Info.Fields[:])
		e.PutBytes(ret[i1].Info.Tag[:])
		e.Align(4)
	}
	e.Grow(4)
	e.PutU32LE(uint32(total))
}

// UnmarshalBenchListDirMachReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirMachReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32LE()
	switch st {
	case 0:
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		n15, ok16 := d.Len(rt.LE, 0, false, 140)
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
			n17, ok18 := d.Len(rt.LE, 255, false, 1)
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
			rt.GetSlice32LE(ret[i1].Info.Fields[:], d.Next(4*30))
			copy(ret[i1].Info.Tag[:], d.Next(16))
			d.Align(4)
		}
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		total = int32(d.U32LE())
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// MarshalBenchPingMachRequest encodes the message payload (fixed class, mach3).
func MarshalBenchPingMachRequest(e *rt.Encoder, nonce int32) {
	e.Grow(4)
	e.PutU32LE(uint32(nonce))
}

// UnmarshalBenchPingMachRequest decodes the message payload (fixed class, mach3).
func UnmarshalBenchPingMachRequest(d *rt.Decoder) (nonce int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	nonce = int32(d.U32LE())
	err = d.Err()
	return
}

// BenchMachClient invokes Bench operations over a connection.
type BenchMachClient struct {
	C *rt.Client
}

// NewBenchMachClient wraps conn with the mach3 message protocol.
func NewBenchMachClient(conn rt.Conn) *BenchMachClient {
	c := rt.NewClient(conn, rt.Mach{})
	c.Prog = 0
	c.Vers = 0
	return &BenchMachClient{C: c}
}

// SendInts invokes the send_ints operation.
func (c *BenchMachClient) SendInts(v []int32) (err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(0, "send_ints", false, false, func(e *rt.Encoder) {
		MarshalBenchSendIntsMachRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendIntsMachReply(d)
	d.Release()
	return
}

// SendRects invokes the send_rects operation.
func (c *BenchMachClient) SendRects(v []BenchRect) (err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(1, "send_rects", false, false, func(e *rt.Encoder) {
		MarshalBenchSendRectsMachRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendRectsMachReply(d)
	d.Release()
	return
}

// SendDirs invokes the send_dirs operation.
func (c *BenchMachClient) SendDirs(v []BenchDirEntry) (err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(2, "send_dirs", false, false, func(e *rt.Encoder) {
		MarshalBenchSendDirsMachRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendDirsMachReply(d)
	d.Release()
	return
}

// Sum invokes the sum operation.
func (c *BenchMachClient) Sum(v []int32) (ret int32, err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(3, "sum", false, true, func(e *rt.Encoder) {
		MarshalBenchSumMachRequest(e, v)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalBenchSumMachReply(d)
	d.Release()
	return
}

// ListDir invokes the list_dir operation.
func (c *BenchMachClient) ListDir(path string) (ret []BenchDirEntry, total int32, err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(4, "list_dir", false, true, func(e *rt.Encoder) {
		MarshalBenchListDirMachRequest(e, path)
	})
	if err != nil {
		return
	}
	ret, total, err = UnmarshalBenchListDirMachReply(d)
	d.Release()
	return
}

// Ping invokes the ping operation.
func (c *BenchMachClient) Ping(nonce int32) (err error) {
	_, err = c.C.CallIdem(5, "ping", true, false, func(e *rt.Encoder) {
		MarshalBenchPingMachRequest(e, nonce)
	})
	if err != nil {
		return
	}
	return
}

// BenchMachServer is the interface a Bench implementation provides.
//
// The arguments named below are valid only until the method returns:
// they alias the request's receive buffer or storage the runtime lends
// to a later request. An implementation that keeps the values copies
// them (append([]int32(nil), v...)), and must not store the argument
// itself, send it or hand it to a goroutine.
//
//flick:borrowed Sum v
type BenchMachServer interface {
	SendInts(v []int32) (err error)
	SendRects(v []BenchRect) (err error)
	SendDirs(v []BenchDirEntry) (err error)
	Sum(v []int32) (ret int32, err error)
	ListDir(path string) (ret []BenchDirEntry, total int32, err error)
	Ping(nonce int32) (err error)
}

// RegisterBenchMach installs the BenchMach dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterBenchMach(s *rt.Server, impl BenchMachServer) {
	s.Register(0, 0, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		switch h.Proc {
		case 0:
			h.OpName = "send_ints"
			a_v, argErr := UnmarshalBenchSendIntsMachRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendInts(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendIntsMachReply(e)
			return nil
		case 1:
			h.OpName = "send_rects"
			a_v, argErr := UnmarshalBenchSendRectsMachRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendRects(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendRectsMachReply(e)
			return nil
		case 2:
			h.OpName = "send_dirs"
			a_v, argErr := UnmarshalBenchSendDirsMachRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendDirs(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendDirsMachReply(e)
			return nil
		case 3:
			h.OpName = "sum"
			a_v, argErr := UnmarshalBenchSumMachRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Sum(a_v)
			if workErr != nil {
				if ex, ok := workErr.(*BenchBadSize); ok {
					MarshalBenchSumMachErrBadSize(e, ex)
					return nil
				}
				return workErr
			}
			MarshalBenchSumMachReply(e, r_ret)
			d.EndBorrow()
			return nil
		case 4:
			h.OpName = "list_dir"
			a_path, argErr := UnmarshalBenchListDirMachRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, r_total, workErr := impl.ListDir(a_path)
			if workErr != nil {
				return workErr
			}
			MarshalBenchListDirMachReply(e, r_ret, r_total)
			return nil
		case 5:
			h.OpName = "ping"
			h.OneWay = true
			a_nonce, argErr := UnmarshalBenchPingMachRequest(d)
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
