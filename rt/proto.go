package rt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// ReqHeader carries the protocol-independent request metadata.
type ReqHeader struct {
	XID  uint32
	Prog uint32
	Vers uint32
	// Proc is the operation code (ONC procedure number; synthesized
	// index for protocols that demultiplex by name).
	Proc uint32
	// OpName is the operation name (GIOP demultiplexes requests on it).
	OpName string
	// ObjectKey addresses the target object (GIOP).
	ObjectKey []byte
	// OneWay suppresses the reply.
	OneWay bool
	// Trace is the propagated trace annotation (valid when Traced; see
	// SplitTrace). Handlers continue the trace via (*ReqHeader).Context.
	Trace TraceContext
	// Traced reports whether the request carried a trace annotation.
	Traced bool
	// Deadline is the absolute local deadline derived from a wire
	// deadline annotation (valid when HasDeadline; see SplitDeadline).
	// The server sheds the request without dispatching once it passes,
	// and (*ReqHeader).Context returns a context that expires with it.
	Deadline time.Time
	// HasDeadline reports whether the request carried a deadline
	// annotation.
	HasDeadline bool

	// streams is the serving connection's stream registry, set by the
	// decode loop so NewStreamSender (stream.go) can bind a streaming
	// handler to the consumer's credit ledger. Nil outside ServeConn.
	streams *connStreams
	// calls is the serving connection's in-flight call registry, set by
	// the decode loop so (*ReqHeader).Context can expose client-sent
	// cancel frames as context cancellation. Nil outside ServeConn.
	calls *connCalls
}

// Reply status values (protocol-independent).
const (
	ReplyOK uint32 = iota
	// ReplySystemError reports a dispatch failure (unknown operation,
	// malformed arguments); no payload follows.
	ReplySystemError
	// ReplyOverloaded reports a request shed by server-side admission
	// control *before* dispatch: the operation did not execute, so the
	// client classifies the failure as retryable even for
	// non-idempotent calls (see ErrOverloaded). No payload follows.
	ReplyOverloaded
	// ReplyExpired reports a request whose propagated deadline (see
	// SplitDeadline) had already passed when the server was about to
	// dispatch it: the operation did not execute, and retrying is
	// pointless — the budget is gone end to end — so the client
	// classifies it as terminal (see ErrExpired). No payload follows.
	ReplyExpired
)

// RepHeader carries reply metadata.
type RepHeader struct {
	XID    uint32
	Status uint32
}

// Protocol lays out message headers around mir-generated payloads. The
// payload always begins at an offset aligned to the protocol's encoding
// MaxAlign; Write* and Read* pad accordingly.
type Protocol interface {
	Name() string
	// DemuxByName reports whether servers dispatch on OpName (GIOP)
	// rather than Proc.
	DemuxByName() bool
	WriteRequest(e *Encoder, h *ReqHeader)
	ReadRequest(d *Decoder) (ReqHeader, error)
	WriteReply(e *Encoder, h *RepHeader)
	ReadReply(d *Decoder) (RepHeader, error)
}

// writeRequest writes h through p. The runtime's own protocols are called
// concretely: none of their WriteRequest or WriteReply methods retains
// the header, so the caller's header stays on its stack instead of
// escaping through the interface call. Any other Protocol gets a copy
// declared in its own arm, so only it pays the allocation.
func writeRequest(p Protocol, e *Encoder, h *ReqHeader) {
	switch p := p.(type) {
	case ONC:
		p.WriteRequest(e, h)
	case GIOP:
		p.WriteRequest(e, h)
	case Mach:
		p.WriteRequest(e, h)
	case Fluke:
		p.WriteRequest(e, h)
	default:
		hc := *h
		p.WriteRequest(e, &hc)
	}
}

// writeReply is writeRequest for reply headers.
func writeReply(p Protocol, e *Encoder, h *RepHeader) {
	switch p := p.(type) {
	case ONC:
		p.WriteReply(e, h)
	case GIOP:
		p.WriteReply(e, h)
	case Mach:
		p.WriteReply(e, h)
	case Fluke:
		p.WriteReply(e, h)
	default:
		hc := *h
		p.WriteReply(e, &hc)
	}
}

// ErrSystem reports a peer-side dispatch failure.
var ErrSystem = errors.New("rt: system error from peer")

// ErrBadMagic reports a malformed message header.
var ErrBadMagic = errors.New("rt: bad protocol header")

// --- ONC RPC (RFC 5531 structure, AUTH_NONE) -------------------------------

// ONC is the ONC RPC message format over XDR.
type ONC struct{}

const (
	oncCall    = 0
	oncReply   = 1
	oncRPCVers = 2
)

func (ONC) Name() string      { return "onc" }
func (ONC) DemuxByName() bool { return false }

// WriteRequest emits the 40-byte ONC call header: xid, CALL, rpcvers,
// prog, vers, proc, null credentials, null verifier.
func (ONC) WriteRequest(e *Encoder, h *ReqHeader) {
	e.Grow(40)
	e.PutU32BE(h.XID)
	e.PutU32BE(oncCall)
	e.PutU32BE(oncRPCVers)
	e.PutU32BE(h.Prog)
	e.PutU32BE(h.Vers)
	e.PutU32BE(h.Proc)
	e.PutU32BE(0) // cred flavor AUTH_NONE
	e.PutU32BE(0) // cred length
	e.PutU32BE(0) // verf flavor
	e.PutU32BE(0) // verf length
}

func (ONC) ReadRequest(d *Decoder) (ReqHeader, error) {
	if !d.Ensure(40) {
		return ReqHeader{}, d.Err()
	}
	var h ReqHeader
	h.XID = d.U32BE()
	if mt := d.U32BE(); mt != oncCall {
		return h, d.Fail(fmt.Errorf("%w: ONC message type %d", ErrBadMagic, mt))
	}
	if rv := d.U32BE(); rv != oncRPCVers {
		return h, d.Fail(fmt.Errorf("%w: ONC rpc version %d", ErrBadMagic, rv))
	}
	h.Prog = d.U32BE()
	h.Vers = d.U32BE()
	h.Proc = d.U32BE()
	credFlavor := d.U32BE()
	credLen := d.U32BE()
	_ = credFlavor
	if credLen > 0 {
		if !d.Ensure(int(credLen)) {
			return h, d.Err()
		}
		d.Next(int(credLen))
	}
	if !d.Ensure(8) {
		return h, d.Err()
	}
	d.U32BE() // verf flavor
	verfLen := d.U32BE()
	if verfLen > 0 {
		if !d.Ensure(int(verfLen)) {
			return h, d.Err()
		}
		d.Next(int(verfLen))
	}
	return h, nil
}

// WriteReply emits the 24-byte accepted-reply header; Status maps to the
// ONC accept_stat (SUCCESS / SYSTEM_ERR, plus accept_stat 6 for
// admission-control rejection — a documented deviation, self-consistent
// on both ends).
func (ONC) WriteReply(e *Encoder, h *RepHeader) {
	e.Grow(24)
	e.PutU32BE(h.XID)
	e.PutU32BE(oncReply)
	e.PutU32BE(0) // MSG_ACCEPTED
	e.PutU32BE(0) // verf flavor
	e.PutU32BE(0) // verf length
	switch h.Status {
	case ReplyOK:
		e.PutU32BE(0) // SUCCESS
	case ReplyOverloaded:
		e.PutU32BE(6) // overloaded (deviation: RFC 5531 stops at 5)
	case ReplyExpired:
		e.PutU32BE(7) // deadline expired (deviation, like 6)
	default:
		e.PutU32BE(5) // SYSTEM_ERR
	}
}

func (ONC) ReadReply(d *Decoder) (RepHeader, error) {
	if !d.Ensure(24) {
		return RepHeader{}, d.Err()
	}
	var h RepHeader
	h.XID = d.U32BE()
	if mt := d.U32BE(); mt != oncReply {
		return h, d.Fail(fmt.Errorf("%w: ONC reply type %d", ErrBadMagic, mt))
	}
	if rs := d.U32BE(); rs != 0 {
		return h, d.Fail(fmt.Errorf("%w: ONC reply denied (%d)", ErrSystem, rs))
	}
	d.U32BE() // verf flavor
	d.U32BE() // verf len (assumed 0)
	switch as := d.U32BE(); as {
	case 0:
	case 6:
		h.Status = ReplyOverloaded
	case 7:
		h.Status = ReplyExpired
	default:
		h.Status = ReplySystemError
	}
	return h, nil
}

// --- GIOP / IIOP ------------------------------------------------------------

// GIOP is the CORBA Internet Inter-ORB Protocol message format (GIOP 1.0
// structure). The sender's byte order is flagged in the header. Payloads
// begin 8-aligned (we pad the header region; real GIOP aligns relative to
// the header start — documented deviation, self-consistent on both ends).
type GIOP struct {
	Little bool
}

const (
	giopRequest = 0
	giopReply   = 1
)

func (g GIOP) Name() string      { return "giop" }
func (g GIOP) DemuxByName() bool { return true }

func (g GIOP) putU32(e *Encoder, v uint32) {
	if g.Little {
		e.PutU32LE(v)
	} else {
		e.PutU32BE(v)
	}
}

func (g GIOP) getU32(d *Decoder) uint32 {
	if g.Little {
		return d.U32LE()
	}
	return d.U32BE()
}

func (g GIOP) writeHeader(e *Encoder, msgType byte) {
	e.Grow(12)
	e.PutBytes([]byte{'G', 'I', 'O', 'P', 1, 0})
	if g.Little {
		e.PutU8(1)
	} else {
		e.PutU8(0)
	}
	e.PutU8(msgType)
	// Message size is filled by the transport framing; GIOP carries it
	// too for stream transports. We write the placeholder.
	g.putU32(e, 0)
}

func (g GIOP) readHeader(d *Decoder, wantType byte) error {
	if !d.Ensure(12) {
		return d.Err()
	}
	magic := d.Next(4)
	if string(magic) != "GIOP" {
		return d.Fail(fmt.Errorf("%w: GIOP magic %q", ErrBadMagic, magic))
	}
	d.Next(2) // version
	flag := d.U8()
	if (flag == 1) != g.Little {
		return d.Fail(fmt.Errorf("%w: GIOP byte order flag %d (peer endianness mismatch)", ErrBadMagic, flag))
	}
	if mt := d.U8(); mt != wantType {
		return d.Fail(fmt.Errorf("%w: GIOP message type %d, want %d", ErrBadMagic, mt, wantType))
	}
	g.getU32(d) // message size (framing already delimits)
	return nil
}

// WriteRequest emits the GIOP Request header: service context (empty),
// request id, response-expected, object key, operation name, principal
// (empty), then pads to the 8-byte payload boundary.
func (g GIOP) WriteRequest(e *Encoder, h *ReqHeader) {
	g.writeHeader(e, giopRequest)
	e.GrowDyn(32, 1, len(h.ObjectKey)+len(h.OpName))
	g.putU32(e, 0) // service context count
	g.putU32(e, h.XID)
	if h.OneWay {
		e.PutU8(0)
	} else {
		e.PutU8(1)
	}
	e.Align(4)
	g.putU32(e, uint32(len(h.ObjectKey)))
	e.PutBytes(h.ObjectKey)
	e.Align(4)
	g.putU32(e, uint32(len(h.OpName))+1)
	e.PutString(h.OpName)
	e.PutU8(0)
	e.Align(4)
	g.putU32(e, 0) // principal length
	e.Align(8)
}

func (g GIOP) ReadRequest(d *Decoder) (ReqHeader, error) {
	var h ReqHeader
	if err := g.readHeader(d, giopRequest); err != nil {
		return h, err
	}
	if !d.Ensure(9) {
		return h, d.Err()
	}
	if n := g.getU32(d); n != 0 {
		return h, d.Fail(fmt.Errorf("%w: unexpected service contexts", ErrBadMagic))
	}
	h.XID = g.getU32(d)
	h.OneWay = d.U8() == 0
	d.Align(4)
	if !d.Ensure(4) {
		return h, d.Err()
	}
	keyLen, ok := d.Len(orderOf(g.Little), 0, false, 1)
	if !ok {
		return h, d.Err()
	}
	if !d.Ensure(keyLen) {
		return h, d.Err()
	}
	h.ObjectKey = append([]byte(nil), d.Next(keyLen)...)
	d.Align(4)
	if !d.Ensure(4) {
		return h, d.Err()
	}
	opLen, ok := d.Len(orderOf(g.Little), 0, true, 1)
	if !ok {
		return h, d.Err()
	}
	if !d.Ensure(opLen + 1) {
		return h, d.Err()
	}
	h.OpName = string(d.Next(opLen))
	d.U8() // NUL
	d.Align(4)
	if !d.Ensure(4) {
		return h, d.Err()
	}
	g.getU32(d) // principal length (assumed 0)
	d.Align(8)
	return h, d.Err()
}

// WriteReply emits the GIOP Reply header: service context, request id,
// reply status, padded to the payload boundary.
func (g GIOP) WriteReply(e *Encoder, h *RepHeader) {
	g.writeHeader(e, giopReply)
	e.Grow(16)
	g.putU32(e, 0) // service context count
	g.putU32(e, h.XID)
	switch h.Status {
	case ReplyOK:
		g.putU32(e, 0) // NO_EXCEPTION
	case ReplyOverloaded:
		g.putU32(e, 4) // overloaded (deviation: GIOP 1.0 stops at 3)
	case ReplyExpired:
		g.putU32(e, 5) // deadline expired (deviation, like 4)
	default:
		g.putU32(e, 2) // SYSTEM_EXCEPTION
	}
	e.Align(8)
}

func (g GIOP) ReadReply(d *Decoder) (RepHeader, error) {
	var h RepHeader
	if err := g.readHeader(d, giopReply); err != nil {
		return h, err
	}
	if !d.Ensure(12) {
		return h, d.Err()
	}
	g.getU32(d) // service contexts
	h.XID = g.getU32(d)
	switch st := g.getU32(d); st {
	case 0:
	case 4:
		h.Status = ReplyOverloaded
	case 5:
		h.Status = ReplyExpired
	default:
		h.Status = ReplySystemError
	}
	d.Align(8)
	return h, d.Err()
}

func orderOf(little bool) ByteOrder {
	if little {
		return LE
	}
	return BE
}

// --- Mach 3 typed messages ---------------------------------------------------

// Mach is the Mach 3 message format: a fixed header (bits, size, ports,
// id) followed by a type descriptor and the inline body.
type Mach struct{}

func (Mach) Name() string      { return "mach3" }
func (Mach) DemuxByName() bool { return false }

// WriteRequest emits the 24-byte Mach header: msgh_bits, msgh_size
// (patched by framing), remote port, local port, msgh_id (the operation),
// and one inline type descriptor for the body.
func (Mach) WriteRequest(e *Encoder, h *ReqHeader) {
	e.Grow(24)
	e.PutU32LE(0x00001513) // msgh_bits: complex=0, remote+local rights
	e.PutU32LE(0)          // msgh_size (framing delimits)
	e.PutU32LE(0x100 + h.Prog)
	e.PutU32LE(h.XID) // reply port names the waiting rendezvous
	e.PutU32LE(h.Proc)
	// Inline descriptor: type=BYTE(9)<<24 | size 8 bits<<16 | count
	// patched at read side from framing; we store 0.
	e.PutU32LE(9 << 24)
}

func (Mach) ReadRequest(d *Decoder) (ReqHeader, error) {
	if !d.Ensure(24) {
		return ReqHeader{}, d.Err()
	}
	var h ReqHeader
	d.U32LE() // bits
	d.U32LE() // size
	prog := d.U32LE()
	h.XID = d.U32LE() // reply port
	h.Proc = d.U32LE()
	h.Prog = prog - 0x100
	if desc := d.U32LE(); desc>>24 != 9 {
		return h, d.Fail(fmt.Errorf("%w: Mach type descriptor %#x", ErrBadMagic, desc))
	}
	return h, nil
}

// WriteReply mirrors WriteRequest with the reply id convention
// (msgh_id + 100, as MIG does).
func (Mach) WriteReply(e *Encoder, h *RepHeader) {
	e.Grow(24)
	e.PutU32LE(0x00001200)
	e.PutU32LE(0)
	e.PutU32LE(h.XID) // destination port: the caller's rendezvous
	e.PutU32LE(0)
	e.PutU32LE(100) // msgh_id: reply convention
	switch h.Status {
	case ReplyOK:
		e.PutU32LE(9 << 24)
	case ReplyOverloaded:
		e.PutU32LE(0xFE << 24) // overloaded descriptor (deviation)
	case ReplyExpired:
		e.PutU32LE(0xFD << 24) // expired descriptor (deviation)
	default:
		e.PutU32LE(0xFF << 24)
	}
}

func (Mach) ReadReply(d *Decoder) (RepHeader, error) {
	if !d.Ensure(24) {
		return RepHeader{}, d.Err()
	}
	var h RepHeader
	d.U32LE()
	d.U32LE()
	h.XID = d.U32LE()
	d.U32LE()
	d.U32LE() // msgh_id
	switch desc := d.U32LE(); desc >> 24 {
	case 9:
	case 0xFE:
		h.Status = ReplyOverloaded
	case 0xFD:
		h.Status = ReplyExpired
	default:
		h.Status = ReplySystemError
	}
	return h, nil
}

// --- Fluke kernel IPC ---------------------------------------------------------

// Fluke is the minimal Fluke IPC format: two header words (operation and
// flags). The first payload words travel "in registers": the transport's
// in-process implementation passes them without buffer copies.
type Fluke struct{}

func (Fluke) Name() string      { return "fluke" }
func (Fluke) DemuxByName() bool { return false }

func (Fluke) WriteRequest(e *Encoder, h *ReqHeader) {
	e.Grow(12)
	e.PutU32LE(h.Proc)
	flags := uint32(0)
	if h.OneWay {
		flags = 1
	}
	e.PutU32LE(flags)
	e.PutU32LE(h.XID)
}

func (Fluke) ReadRequest(d *Decoder) (ReqHeader, error) {
	if !d.Ensure(12) {
		return ReqHeader{}, d.Err()
	}
	var h ReqHeader
	h.Proc = d.U32LE()
	h.OneWay = d.U32LE()&1 != 0
	h.XID = d.U32LE()
	return h, nil
}

func (Fluke) WriteReply(e *Encoder, h *RepHeader) {
	e.Grow(8)
	e.PutU32LE(h.XID)
	e.PutU32LE(h.Status)
}

func (Fluke) ReadReply(d *Decoder) (RepHeader, error) {
	if !d.Ensure(8) {
		return RepHeader{}, d.Err()
	}
	var h RepHeader
	h.XID = d.U32LE()
	h.Status = d.U32LE()
	return h, nil
}

// --- Batch frames -------------------------------------------------------------
//
// A batch frame packs several protocol messages into one transport
// frame, amortizing the per-frame costs — record mark, write syscall,
// CRC, NIC doorbell — across calls the same way the compiler's §3
// grouping amortizes ensure-space checks across chunks. The envelope is
// protocol-independent (each packed message still carries its own ONC/
// GIOP/Mach/Fluke header) and fully self-describing:
//
//	u32 magic (batchMagic, big-endian)
//	u32 count (1..MaxBatchMessages)
//	count × { u32 length, length bytes }
//
// Detection is structural: the magic must match AND the lengths must
// tile the frame exactly, so an ordinary message whose leading word
// happens to collide is still parsed as an ordinary message. BatchConn
// packs and unpacks envelopes transparently; Server.ServeConn also
// unpacks natively, so a batching client works against a plain server.

// batchMagic marks a batch envelope. It is deliberately far outside the
// XID range a fresh client reaches (clients count up from 1) and
// collides with no protocol's leading bytes ("GIOP", Mach msgh_bits,
// small Fluke procedure numbers).
const batchMagic uint32 = 0xFB1C_BA7C

// MaxBatchMessages bounds the number of messages one envelope may
// carry; a claimed count beyond it fails structural validation.
const MaxBatchMessages = 4096

// batchOverhead is the envelope cost of packing n messages.
func batchOverhead(n int) int { return 8 + 4*n }

// appendBatch appends one length-prefixed message to a frame under
// construction. The frame must have been started with appendBatchStart.
func appendBatch(frame, msg []byte) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(msg)))
	frame = append(frame, l[:]...)
	return append(frame, msg...)
}

// appendBatchStart begins an envelope for count messages.
func appendBatchStart(frame []byte, count int) []byte {
	var h [8]byte
	binary.BigEndian.PutUint32(h[:4], batchMagic)
	binary.BigEndian.PutUint32(h[4:], uint32(count))
	return append(frame, h[:]...)
}

// SplitBatch validates and splits a batch envelope. It returns
// (parts, true) when msg is a well-formed envelope — parts alias msg —
// and (nil, false) otherwise, including for ordinary messages and for
// malformed envelopes (which the caller should treat as ordinary
// messages and let the protocol header parse reject).
func SplitBatch(msg []byte) ([][]byte, bool) {
	parts, ok := appendBatchParts(nil, msg)
	if !ok {
		return nil, false
	}
	return parts, true
}

// appendBatchParts is SplitBatch into the caller's scratch: it returns
// (parts[:0] + the envelope's parts, true), or (parts[:0], false), so a
// receive loop that keeps the returned slice splits frame after frame
// without allocating.
func appendBatchParts(parts [][]byte, msg []byte) ([][]byte, bool) {
	parts = parts[:0]
	if len(msg) < batchOverhead(1) || binary.BigEndian.Uint32(msg) != batchMagic {
		return parts, false
	}
	n := int(binary.BigEndian.Uint32(msg[4:]))
	if n < 1 || n > MaxBatchMessages {
		return parts, false
	}
	off := 8
	for i := 0; i < n; i++ {
		if off+4 > len(msg) {
			return parts[:0], false
		}
		l := int(binary.BigEndian.Uint32(msg[off:]))
		off += 4
		if l > len(msg)-off {
			return parts[:0], false
		}
		parts = append(parts, msg[off:off+l:off+l])
		off += l
	}
	if off != len(msg) {
		// Trailing bytes no length accounts for: not an envelope.
		return parts[:0], false
	}
	return parts, true
}

// --- Trace annotation ---------------------------------------------------------
//
// A trace annotation is an optional, backwards-compatible prefix on a
// request message carrying the distributed tracing context (span.go).
// Like the batch envelope above it is protocol-independent — the
// annotated message still carries its own ONC/GIOP/Mach/Fluke header —
// and fully self-describing:
//
//	u32 magic (traceMagic, big-endian)
//	u32 flags (bit 0 = sampled; all other bits must be zero)
//	16 bytes  trace ID
//	u64 span ID (big-endian; the client attempt span)
//
// Detection is structural: the magic must match, the reserved flag
// bits must be zero, and a protocol message must follow, so an
// ordinary message whose leading word happens to collide still parses
// as an ordinary message. Untraced calls carry no annotation at all —
// an old client against a new server, or a new client with tracing
// off, produces byte-identical frames to the seed. The 32-byte prefix
// is a multiple of every protocol's MaxAlign, so payload alignment
// inside the annotated message is preserved. Requests only: the client
// already holds the span context when the reply arrives, so replies
// stay unannotated. Inside a batch envelope each packed message keeps
// its own annotation, which is how trace context survives
// batching/unbatching for free.

// traceMagic marks a trace annotation. Like batchMagic it sits far
// outside the XID range a fresh client reaches and collides with no
// protocol's leading bytes.
const traceMagic uint32 = 0xFB1C_7AC3

// traceWireSize is the size of the annotation prefix.
const traceWireSize = 32

const traceFlagSampled uint32 = 1

// writeTraceContext prefixes the encoder's message with a trace
// annotation. Must be called before the protocol header is written.
func writeTraceContext(e *Encoder, tc TraceContext) {
	e.Grow(traceWireSize)
	e.PutU32BE(traceMagic)
	var flags uint32
	if tc.Sampled {
		flags |= traceFlagSampled
	}
	e.PutU32BE(flags)
	e.PutBytes(tc.TraceID[:])
	e.PutU64BE(tc.SpanID)
}

// SplitTrace validates and strips a trace annotation. It returns
// (context, message, true) when msg begins with a well-formed
// annotation — the returned message aliases msg — and
// (TraceContext{}, msg, false) otherwise, including for ordinary
// messages (which the caller simply parses as before).
func SplitTrace(msg []byte) (TraceContext, []byte, bool) {
	// A real annotated request has a protocol message after the prefix;
	// a bare or truncated prefix is not an annotation.
	if len(msg) <= traceWireSize || binary.BigEndian.Uint32(msg) != traceMagic {
		return TraceContext{}, msg, false
	}
	flags := binary.BigEndian.Uint32(msg[4:])
	if flags&^traceFlagSampled != 0 {
		return TraceContext{}, msg, false
	}
	var tc TraceContext
	copy(tc.TraceID[:], msg[8:24])
	tc.SpanID = binary.BigEndian.Uint64(msg[24:32])
	tc.Sampled = flags&traceFlagSampled != 0
	return tc, msg[traceWireSize:], true
}

// --- Deadline annotation ------------------------------------------------------
//
// A deadline annotation is an optional, backwards-compatible prefix on
// a request message carrying the call's remaining time budget, so the
// server inherits the end-to-end deadline instead of working on calls
// nobody is waiting for. It follows the trace annotation's idiom
// exactly — protocol-independent, structurally detected, stripped
// before protocol parsing — and is self-describing:
//
//	u32 magic (deadlineMagic, big-endian)
//	u32 flags (all bits must be zero)
//	u64 budget in nanoseconds (big-endian; remaining at send time)
//
// The budget is relative, not an absolute timestamp, so the contract
// survives unsynchronized clocks: the server converts it to a local
// absolute deadline on receipt (transit time is charged to the caller's
// budget implicitly, which errs on the generous side). Deadline-less
// calls carry no annotation at all — their frames stay byte-identical
// to the seed — and the 16-byte prefix is a multiple of every
// protocol's MaxAlign, so payload alignment is preserved. When both
// annotations are present the deadline prefix comes first (outermost);
// inside a batch envelope each packed message keeps its own.

// deadlineMagic marks a deadline annotation. Like batchMagic it sits
// far outside the XID range a fresh client reaches and collides with no
// protocol's leading bytes.
const deadlineMagic uint32 = 0xFB1C_DEAD

// deadlineWireSize is the size of the annotation prefix.
const deadlineWireSize = 16

// writeDeadline prefixes the encoder's message with a deadline
// annotation carrying the remaining budget. Must be called before the
// trace annotation and protocol header are written.
func writeDeadline(e *Encoder, budget time.Duration) {
	if budget < 0 {
		budget = 0
	}
	e.Grow(deadlineWireSize)
	e.PutU32BE(deadlineMagic)
	e.PutU32BE(0)
	e.PutU64BE(uint64(budget))
}

// SplitDeadline validates and strips a deadline annotation. It returns
// (budget, message, true) when msg begins with a well-formed annotation
// — the returned message aliases msg — and (0, msg, false) otherwise,
// including for ordinary messages (which the caller parses as before).
func SplitDeadline(msg []byte) (time.Duration, []byte, bool) {
	// A real annotated request has a protocol message after the prefix;
	// a bare or truncated prefix is not an annotation.
	if len(msg) <= deadlineWireSize || binary.BigEndian.Uint32(msg) != deadlineMagic {
		return 0, msg, false
	}
	if binary.BigEndian.Uint32(msg[4:]) != 0 {
		return 0, msg, false
	}
	budget := binary.BigEndian.Uint64(msg[8:16])
	if budget > uint64(1<<62) {
		return 0, msg, false
	}
	return time.Duration(budget), msg[deadlineWireSize:], true
}

// ProtocolByName returns a protocol by its wire-format name.
func ProtocolByName(name string) (Protocol, bool) {
	switch name {
	case "onc", "xdr":
		return ONC{}, true
	case "giop", "cdr", "cdr-be":
		return GIOP{}, true
	case "giop-le", "cdr-le":
		return GIOP{Little: true}, true
	case "mach3":
		return Mach{}, true
	case "fluke":
		return Fluke{}, true
	}
	return nil, false
}

// Word4 returns up to four bytes of s starting at off, packed big-endian
// and zero-padded: the machine-word unit of Flick's server-side
// discriminator hashing (GIOP operation names are matched a word at a
// time through nested switches).
func Word4(s string, off int) uint32 {
	var w uint32
	for i := 0; i < 4 && off+i < len(s); i++ {
		w |= uint32(s[off+i]) << (24 - 8*i)
	}
	return w
}
