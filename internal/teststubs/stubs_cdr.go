// Code generated by flick (flick/cdr-le). DO NOT EDIT.

package teststubs

import (
	"encoding/binary"

	"flick/rt"
)

// MarshalBenchSendIntsCDRRequest encodes the message payload (unbounded class, cdr-le).
func MarshalBenchSendIntsCDRRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32LE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32LE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSendIntsCDRRequest decodes the message payload (unbounded class, cdr-le).
func UnmarshalBenchSendIntsCDRRequest(d *rt.Decoder) (v []int32, err error) {
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

// MarshalBenchSendIntsCDRReply encodes a successful reply (status 0).
func MarshalBenchSendIntsCDRReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32LE(0)
}

// UnmarshalBenchSendIntsCDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsCDRReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendRectsCDRRequest encodes the message payload (unbounded class, cdr-le).
func MarshalBenchSendRectsCDRRequest(e *rt.Encoder, v []BenchRect) {
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

// UnmarshalBenchSendRectsCDRRequest decodes the message payload (unbounded class, cdr-le).
func UnmarshalBenchSendRectsCDRRequest(d *rt.Decoder) (v []BenchRect, err error) {
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

// MarshalBenchSendRectsCDRReply encodes a successful reply (status 0).
func MarshalBenchSendRectsCDRReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32LE(0)
}

// UnmarshalBenchSendRectsCDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsCDRReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSendDirsCDRRequest encodes the message payload (unbounded class, cdr-le).
func MarshalBenchSendDirsCDRRequest(e *rt.Encoder, v []BenchDirEntry) {
	e.Grow(4)
	e.PutU32LE(uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		e.Grow(402)
		e.Align(4)
		rt.CheckBound(len(v[i1].Name), 255)
		e.PutU32LE(uint32(len(v[i1].Name) + 1))
		e.PutString(v[i1].Name)
		e.PutU8(0)
		e.Align(4)
		rt.PutSlice32LE(e.Next(4*30), v[i1].Info.Fields[:])
		e.PutBytes(v[i1].Info.Tag[:])
	}
}

// UnmarshalBenchSendDirsCDRRequest decodes the message payload (unbounded class, cdr-le).
func UnmarshalBenchSendDirsCDRRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n7, ok8 := d.Len(rt.LE, 0, false, 141)
	if !ok8 {
		err = d.Err()
		return
	}
	v = make([]BenchDirEntry, n7)
	d.Slab(141 * n7)
	for i1 := 0; i1 < len(v); i1++ {
		d.Align(4)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		n9, ok10 := d.Len(rt.LE, 255, true, 1)
		if !ok10 {
			err = d.Err()
			return
		}
		if !d.EnsureDyn(0, 1, n9) {
			err = d.Err()
			return
		}
		v[i1].Name = d.NextString(n9)
		if !d.Ensure(1) {
			err = d.Err()
			return
		}
		if !d.CheckConst(uint64(d.U8()), 0) {
			err = d.Err()
			return
		}
		d.Align(4)
		if !d.Ensure(136) {
			err = d.Err()
			return
		}
		rt.GetSlice32LE(v[i1].Info.Fields[:], d.Next(4*30))
		copy(v[i1].Info.Tag[:], d.Next(16))
	}
	err = d.Err()
	return
}

// MarshalBenchSendDirsCDRReply encodes a successful reply (status 0).
func MarshalBenchSendDirsCDRReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32LE(0)
}

// UnmarshalBenchSendDirsCDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsCDRReply(d *rt.Decoder) (err error) {
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

// MarshalBenchSumCDRRequest encodes the message payload (unbounded class, cdr-le).
func MarshalBenchSumCDRRequest(e *rt.Encoder, v []int32) {
	e.Grow(4)
	e.PutU32LE(uint32(len(v)))
	e.GrowDyn(0, 4, len(v))
	rt.PutSlice32LE(e.Next(4*len(v)), v)
}

// UnmarshalBenchSumCDRRequest decodes the message payload (unbounded class, cdr-le).
func UnmarshalBenchSumCDRRequest(d *rt.Decoder) (v []int32, err error) {
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

// MarshalBenchSumCDRReply encodes a successful reply (status 0).
func MarshalBenchSumCDRReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32LE(0)
	e.Grow(4)
	e.PutU32LE(uint32(ret))
}

// MarshalBenchSumCDRErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumCDRErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.Grow(4)
	e.PutU32LE(1)
	e.Grow(4)
	e.PutU32LE(uint32((*ex).Wanted))
}

// UnmarshalBenchSumCDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumCDRReply(d *rt.Decoder) (ret int32, err error) {
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

// MarshalBenchListDirCDRRequest encodes the message payload (bounded class, cdr-le).
func MarshalBenchListDirCDRRequest(e *rt.Encoder, path string) {
	e.Grow(260)
	rt.CheckBound(len(path), 255)
	e.PutU32LE(uint32(len(path) + 1))
	e.PutString(path)
	e.PutU8(0)
}

// UnmarshalBenchListDirCDRRequest decodes the message payload (bounded class, cdr-le).
func UnmarshalBenchListDirCDRRequest(d *rt.Decoder) (path string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n13, ok14 := d.Len(rt.LE, 255, true, 1)
	if !ok14 {
		err = d.Err()
		return
	}
	if !d.EnsureDyn(0, 1, n13) {
		err = d.Err()
		return
	}
	path = string(d.Next(n13))
	if !d.Ensure(1) {
		err = d.Err()
		return
	}
	if !d.CheckConst(uint64(d.U8()), 0) {
		err = d.Err()
		return
	}
	err = d.Err()
	return
}

// MarshalBenchListDirCDRReply encodes a successful reply (status 0).
func MarshalBenchListDirCDRReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
	e.Grow(4)
	e.PutU32LE(0)
	e.Grow(4)
	e.PutU32LE(uint32(len(ret)))
	for i1 := 0; i1 < len(ret); i1++ {
		e.Grow(402)
		e.Align(4)
		rt.CheckBound(len(ret[i1].Name), 255)
		e.PutU32LE(uint32(len(ret[i1].Name) + 1))
		e.PutString(ret[i1].Name)
		e.PutU8(0)
		e.Align(4)
		rt.PutSlice32LE(e.Next(4*30), ret[i1].Info.Fields[:])
		e.PutBytes(ret[i1].Info.Tag[:])
	}
	e.Grow(7)
	e.Align(4)
	e.PutU32LE(uint32(total))
}

// UnmarshalBenchListDirCDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirCDRReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
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
		n15, ok16 := d.Len(rt.LE, 0, false, 141)
		if !ok16 {
			err = d.Err()
			return
		}
		ret = make([]BenchDirEntry, n15)
		d.Slab(141*n15 + 4)
		for i1 := 0; i1 < len(ret); i1++ {
			d.Align(4)
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			n17, ok18 := d.Len(rt.LE, 255, true, 1)
			if !ok18 {
				err = d.Err()
				return
			}
			if !d.EnsureDyn(0, 1, n17) {
				err = d.Err()
				return
			}
			ret[i1].Name = d.NextString(n17)
			if !d.Ensure(1) {
				err = d.Err()
				return
			}
			if !d.CheckConst(uint64(d.U8()), 0) {
				err = d.Err()
				return
			}
			d.Align(4)
			if !d.Ensure(136) {
				err = d.Err()
				return
			}
			rt.GetSlice32LE(ret[i1].Info.Fields[:], d.Next(4*30))
			copy(ret[i1].Info.Tag[:], d.Next(16))
		}
		d.Align(4)
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

// MarshalBenchPingCDRRequest encodes the message payload (fixed class, cdr-le).
func MarshalBenchPingCDRRequest(e *rt.Encoder, nonce int32) {
	e.Grow(4)
	e.PutU32LE(uint32(nonce))
}

// UnmarshalBenchPingCDRRequest decodes the message payload (fixed class, cdr-le).
func UnmarshalBenchPingCDRRequest(d *rt.Decoder) (nonce int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	nonce = int32(d.U32LE())
	err = d.Err()
	return
}

// BenchCDRClient invokes Bench operations over a connection.
type BenchCDRClient struct {
	C *rt.Client
}

// NewBenchCDRClient wraps conn with the cdr-le message protocol.
func NewBenchCDRClient(conn rt.Conn) *BenchCDRClient {
	c := rt.NewClient(conn, rt.GIOP{Little: true})
	c.Prog = 0
	c.Vers = 0
	return &BenchCDRClient{C: c}
}

// SendInts invokes the send_ints operation.
func (c *BenchCDRClient) SendInts(v []int32) (err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(0, "send_ints", false, false, func(e *rt.Encoder) {
		MarshalBenchSendIntsCDRRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendIntsCDRReply(d)
	d.Release()
	return
}

// SendRects invokes the send_rects operation.
func (c *BenchCDRClient) SendRects(v []BenchRect) (err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(1, "send_rects", false, false, func(e *rt.Encoder) {
		MarshalBenchSendRectsCDRRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendRectsCDRReply(d)
	d.Release()
	return
}

// SendDirs invokes the send_dirs operation.
func (c *BenchCDRClient) SendDirs(v []BenchDirEntry) (err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(2, "send_dirs", false, false, func(e *rt.Encoder) {
		MarshalBenchSendDirsCDRRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendDirsCDRReply(d)
	d.Release()
	return
}

// Sum invokes the sum operation.
func (c *BenchCDRClient) Sum(v []int32) (ret int32, err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(3, "sum", false, true, func(e *rt.Encoder) {
		MarshalBenchSumCDRRequest(e, v)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalBenchSumCDRReply(d)
	d.Release()
	return
}

// ListDir invokes the list_dir operation.
func (c *BenchCDRClient) ListDir(path string) (ret []BenchDirEntry, total int32, err error) {
	var d *rt.Decoder
	d, err = c.C.CallIdem(4, "list_dir", false, true, func(e *rt.Encoder) {
		MarshalBenchListDirCDRRequest(e, path)
	})
	if err != nil {
		return
	}
	ret, total, err = UnmarshalBenchListDirCDRReply(d)
	d.Release()
	return
}

// Ping invokes the ping operation.
func (c *BenchCDRClient) Ping(nonce int32) (err error) {
	_, err = c.C.CallIdem(5, "ping", true, false, func(e *rt.Encoder) {
		MarshalBenchPingCDRRequest(e, nonce)
	})
	if err != nil {
		return
	}
	return
}

// BenchCDRServer is the interface a Bench implementation provides.
//
// The arguments named below are valid only until the method returns:
// they alias the request's receive buffer or storage the runtime lends
// to a later request. An implementation that keeps the values copies
// them (append([]int32(nil), v...)), and must not store the argument
// itself, send it or hand it to a goroutine.
//
//flick:borrowed Sum v
type BenchCDRServer interface {
	SendInts(v []int32) (err error)
	SendRects(v []BenchRect) (err error)
	SendDirs(v []BenchDirEntry) (err error)
	Sum(v []int32) (ret int32, err error)
	ListDir(path string) (ret []BenchDirEntry, total int32, err error)
	Ping(nonce int32) (err error)
}

// RegisterBenchCDR installs the BenchCDR dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterBenchCDR(s *rt.Server, impl BenchCDRServer) {
	s.Register(0, 0, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		op := h.OpName
		switch len(op) {
		case 3:
			switch rt.Word4(op, 0) {
			case 0x73756d00: // "sum"
				a_v, argErr := UnmarshalBenchSumCDRRequest(d)
				if argErr != nil {
					return argErr
				}
				r_ret, workErr := impl.Sum(a_v)
				if workErr != nil {
					if ex, ok := workErr.(*BenchBadSize); ok {
						MarshalBenchSumCDRErrBadSize(e, ex)
						return nil
					}
					return workErr
				}
				MarshalBenchSumCDRReply(e, r_ret)
				d.EndBorrow()
				return nil
			}
		case 4:
			switch rt.Word4(op, 0) {
			case 0x70696e67: // "ping"
				h.OneWay = true
				a_nonce, argErr := UnmarshalBenchPingCDRRequest(d)
				if argErr != nil {
					return argErr
				}
				workErr := impl.Ping(a_nonce)
				if workErr != nil {
					return workErr
				}
				return nil
			}
		case 8:
			switch rt.Word4(op, 0) {
			case 0x6c697374: // "list"
				switch rt.Word4(op, 4) {
				case 0x5f646972: // "_dir"
					a_path, argErr := UnmarshalBenchListDirCDRRequest(d)
					if argErr != nil {
						return argErr
					}
					r_ret, r_total, workErr := impl.ListDir(a_path)
					if workErr != nil {
						return workErr
					}
					MarshalBenchListDirCDRReply(e, r_ret, r_total)
					return nil
				}
			}
		case 9:
			switch rt.Word4(op, 0) {
			case 0x73656e64: // "send"
				switch rt.Word4(op, 4) {
				case 0x5f696e74: // "_int"
					switch rt.Word4(op, 8) {
					case 0x73000000: // "s"
						a_v, argErr := UnmarshalBenchSendIntsCDRRequest(d)
						if argErr != nil {
							return argErr
						}
						workErr := impl.SendInts(a_v)
						if workErr != nil {
							return workErr
						}
						MarshalBenchSendIntsCDRReply(e)
						return nil
					}
				case 0x5f646972: // "_dir"
					switch rt.Word4(op, 8) {
					case 0x73000000: // "s"
						a_v, argErr := UnmarshalBenchSendDirsCDRRequest(d)
						if argErr != nil {
							return argErr
						}
						workErr := impl.SendDirs(a_v)
						if workErr != nil {
							return workErr
						}
						MarshalBenchSendDirsCDRReply(e)
						return nil
					}
				}
			}
		case 10:
			switch rt.Word4(op, 0) {
			case 0x73656e64: // "send"
				switch rt.Word4(op, 4) {
				case 0x5f726563: // "_rec"
					switch rt.Word4(op, 8) {
					case 0x74730000: // "ts"
						a_v, argErr := UnmarshalBenchSendRectsCDRRequest(d)
						if argErr != nil {
							return argErr
						}
						workErr := impl.SendRects(a_v)
						if workErr != nil {
							return workErr
						}
						MarshalBenchSendRectsCDRReply(e)
						return nil
					}
				}
			}
		}
		return rt.ErrNoSuchOp
	})
}
