package rt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Server-push streaming: a //flick:stream operation sends its request
// once, then the server pushes a sequence of result-typed chunks under
// an explicit credit window instead of a single reply. The surface is
// built from the same primitives as the rest of the runtime — the
// request travels the ordinary oneway-style path (the dispatch arm
// suppresses the automatic reply), chunks are structurally-tagged
// frames the XID multiplexer routes around normal replies, and credits
// flow upstream as tiny control frames — so streams coexist with
// pipelined calls, batching, tracing annotations, and fault injection
// on one connection.
//
// Flow control is credit-based: the server may transmit one chunk per
// credit granted by the client and blocks otherwise, so a slow consumer
// propagates backpressure to the producer instead of ballooning
// buffers. A window of zero therefore provably blocks the sender until
// the first explicit Grant.
//
// Wire format. Every stream frame begins with a 16-byte header:
//
//	u32 magic (streamMagic, big-endian)
//	u32 kind  (chunk, end, err, grant, cancel, call-cancel, goaway)
//	u32 xid   (the stream's originating request XID)
//	u32 arg   (grant: credit count; err: error code; else zero)
//
// Control frames are exactly the header; a chunk frame carries the
// marshaled chunk payload after it. Like the batch and trace envelopes
// (proto.go) detection is structural, the envelope is protocol-
// independent, and the 16-byte prefix is a multiple of every protocol's
// MaxAlign so chunk payload alignment is preserved.

// streamMagic marks a stream frame. Like batchMagic it sits far outside
// the XID range a fresh client reaches and collides with no protocol's
// leading bytes.
const streamMagic uint32 = 0xFB1C_5EA0

const (
	streamChunk uint32 = iota + 1
	streamEnd
	streamErr
	streamGrant
	streamCancel
	// frameCallCancel is a client→server control frame abandoning the
	// in-flight call xid: the client stopped waiting (context cancel,
	// timeout, lost hedge race), so the server may release the work —
	// cancel its handler context, skip it if still queued — and must not
	// reply. Reuses the stream-frame envelope; xid addresses the call.
	frameCallCancel
	// frameGoAway is a server→client control frame announcing lameduck
	// drain (Server.Drain): the connection accepts no new requests and
	// will close once in-flight work settles. xid is zero; arg carries
	// the drain deadline hint in milliseconds. Clients mark the session
	// draining so pools migrate traffic to healthy sessions.
	frameGoAway
)

// streamErrWork is the err-frame code for a handler work error.
const streamErrWork uint32 = 1

const streamHeaderSize = 16

// ErrStreamBroken reports a stream torn down by transport failure —
// connection loss, a poisoned session, or a credit-protocol violation —
// rather than by the peer finishing or cancelling it. It classifies as
// retryable: the receiver cannot know how much of the transfer the
// sender completed, so the operation must be re-issued from the start.
var ErrStreamBroken = errors.New("rt: stream broken")

// ErrStreamCanceled reports a stream ended by the consumer's Cancel.
var ErrStreamCanceled = errors.New("rt: stream canceled")

// appendStreamHeader writes the 16-byte frame header.
func appendStreamHeader(e *Encoder, kind, xid, arg uint32) {
	e.Grow(streamHeaderSize)
	e.PutU32BE(streamMagic)
	e.PutU32BE(kind)
	e.PutU32BE(xid)
	e.PutU32BE(arg)
}

// SplitStream validates and splits a stream frame. It returns ok=true
// when msg is well-formed — payload aliases msg and is non-empty only
// for chunk frames — and ok=false otherwise, including for ordinary
// messages (which the caller parses as before).
func SplitStream(msg []byte) (kind, xid, arg uint32, payload []byte, ok bool) {
	if len(msg) < streamHeaderSize || beU32(msg) != streamMagic {
		return 0, 0, 0, nil, false
	}
	kind = beU32(msg[4:])
	if kind < streamChunk || kind > frameGoAway {
		return 0, 0, 0, nil, false
	}
	if kind != streamChunk && len(msg) != streamHeaderSize {
		// Control frames carry no payload; trailing bytes mean this is
		// not a stream frame.
		return 0, 0, 0, nil, false
	}
	return kind, beU32(msg[8:]), beU32(msg[12:]), msg[streamHeaderSize:], true
}

func beU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// sendStreamCtl transmits one 16-byte control frame.
func sendStreamCtl(conn Conn, kind, xid, arg uint32) error {
	e := getEncoder()
	appendStreamHeader(e, kind, xid, arg)
	err := conn.Send(e.Bytes())
	putEncoder(e)
	return err
}

// --- Client side --------------------------------------------------------------

// streamMsg is one delivery from the session reader to the consumer: a
// positioned chunk decoder, or the terminal error (io.EOF for a clean
// end-of-stream).
type streamMsg struct {
	dec *Decoder
	err error
}

// ClientStream is the consumer end of one server-push stream. Recv
// yields chunk decoders in transmission order and then a sticky
// terminal status; Grant extends the server's credit; Cancel tears the
// stream down early. Recv is single-consumer; Grant and Cancel may be
// called from other goroutines.
type ClientStream struct {
	c *Client
	// s and xid are the session and request XID the open registered the
	// stream under (written by the call pipeline's begin, before the
	// session reader can see the stream).
	s   *session
	xid uint32
	// window is the construction-time credit level the consumer side
	// automatically restores as chunks are consumed (0 = fully manual).
	window int
	ch     chan streamMsg
	// ctx is the caller context from CallStreamCtx (nil for CallStream):
	// Recv aborts the stream when it is canceled or expires.
	ctx context.Context

	// mu guards the delivery side. Lock order: session.mu, then mu.
	mu   sync.Mutex
	done bool // terminal delivered into ch; late frames are dropped
	live int  // credits granted minus chunks delivered (bounds arrivals)
	// delivered counts chunks handed into ch, checked against the end
	// frame's chunk count so a transfer whose tail frames were lost in
	// transit classifies as broken instead of ending in a clean EOF.
	delivered uint32

	// Consumer-side state (Recv only, single consumer, no lock).
	finished bool
	ferr     error
	consumed int // chunks consumed since the last automatic re-grant
}

// CallStream begins one server-push streaming invocation: marshal
// writes the request payload, window grants the server its initial
// chunk credit (0 starts the stream fully blocked until Grant), and the
// returned stream yields the pushed chunks. The request is transmitted
// before CallStream returns; there is no retry path — a broken stream
// surfaces ErrStreamBroken and the caller decides whether to re-issue.
func (c *Client) CallStream(proc uint32, opName string, window int, marshal func(*Encoder)) (*ClientStream, error) {
	return c.CallStreamCtx(nil, proc, opName, window, marshal)
}

// CallStreamCtx is CallStream with a caller context: a ctx deadline
// travels on the wire as the deadline annotation (the server inherits
// the remaining budget and sheds the request if it expires in queue),
// and ctx cancellation or expiry aborts a blocked Recv, tearing the
// stream down exactly like a Recv timeout — terminal, with a
// best-effort cancel frame unblocking the server-side sender. A nil
// ctx is allowed and means "no propagated deadline or cancellation".
func (c *Client) CallStreamCtx(ctx context.Context, proc uint32, opName string, window int, marshal func(*Encoder)) (*ClientStream, error) {
	if window < 0 {
		window = 0
	}
	// The channel must hold every chunk the server is entitled to send
	// plus the terminal marker; the slack beyond the window is what
	// explicit Grant can draw on (see Grant).
	slack := 8
	if window == 0 {
		slack = 16
	}
	st := &ClientStream{c: c, window: window, ctx: ctx, ch: make(chan streamMsg, window+slack)}

	// The open is one attempt of the ordinary call pipeline whose begin
	// registers the stream instead of a reply slot (so await has nothing
	// to collect and only closes the attempt span): it shares the call
	// path's ctx and deadline handling, trace annotation, send-error
	// classification and failure accounting. There is no settle stage —
	// streams do not retry and do not post to the breaker.
	cd := callDesc{c: c, ctx: ctx, proc: proc, op: opName, stream: st}
	cd.watch()
	_, err := cd.await(cd.begin(marshal))
	if err == nil && window > 0 {
		st.mu.Lock()
		st.live = window
		st.mu.Unlock()
		if err = sendStreamCtl(st.s.conn, streamGrant, st.xid, uint32(window)); err != nil {
			st.s.unregisterStream(st.xid)
			st.drain()
			err = fmt.Errorf("rt: send: %w", err)
		}
	}
	cd.observe(nil, err)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// unregisterStream removes xid from the stream table, retiring it so
// late frames are recognized and dropped.
func (s *session) unregisterStream(xid uint32) {
	s.mu.Lock()
	if _, ok := s.streams[xid]; ok {
		delete(s.streams, xid)
		s.retired.add(xid)
	}
	s.mu.Unlock()
}

// Recv returns the next chunk, positioned for unmarshaling and owned by
// the caller (release with Decoder.Release), or the stream's terminal
// status: io.EOF after the server finished cleanly, ErrStreamCanceled
// after Cancel, an error matching ErrSystem for a handler work error,
// ErrStreamBroken for transport loss. The terminal status is sticky.
// With a construction window, consumed credit is re-granted
// automatically; a zero-window stream grants nothing until Grant.
func (st *ClientStream) Recv() (*Decoder, error) {
	if st.finished {
		return nil, st.ferr
	}
	var ctxDone <-chan struct{}
	if st.ctx != nil {
		ctxDone = st.ctx.Done()
	}
	var m streamMsg
	if t := st.c.Timeout; t > 0 {
		timer := time.NewTimer(t)
		select {
		case m = <-st.ch:
			timer.Stop()
		case <-timer.C:
			// The stream stalled past the call deadline: tear it down
			// like a timed-out call, but terminally (mid-stream state
			// cannot be resumed). Best-effort cancel so a sender merely
			// starved of credit (a lost grant frame) is unblocked rather
			// than orphaned until connection teardown.
			return st.abort(ErrTimeout)
		case <-ctxDone:
			timer.Stop()
			return st.abort(st.ctx.Err())
		}
	} else {
		select {
		case m = <-st.ch:
		case <-ctxDone:
			// A nil ctxDone never fires; with no Timeout and no ctx the
			// receive blocks, as it always has.
			return st.abort(st.ctx.Err())
		}
	}
	if m.err != nil {
		st.finished, st.ferr = true, m.err
		return nil, m.err
	}
	if st.window > 0 {
		st.consumed++
		if st.consumed >= (st.window+1)/2 {
			n := st.consumed
			st.consumed = 0
			if err := st.Grant(n); err != nil {
				st.s.unregisterStream(st.xid)
				st.terminate(err)
			}
		}
	}
	return m.dec, nil
}

// abort tears the stream down terminally with the given cause:
// unregister (late frames drop), deliver the terminal to the session
// reader's side, send a best-effort cancel frame so a server-side
// sender starved of credit unblocks instead of hanging until its own
// timeout, and drain already-buffered chunks back to the pool. The
// cause becomes the sticky terminal status.
func (st *ClientStream) abort(cause error) (*Decoder, error) {
	st.s.unregisterStream(st.xid)
	st.terminate(cause)
	sendStreamCtl(st.s.conn, streamCancel, st.xid, 0)
	st.drain()
	st.finished, st.ferr = true, cause
	return nil, cause
}

// Grant extends the server's chunk credit by n. It is how a zero-window
// stream makes progress and how a consumer paces a transfer by hand.
// The total outstanding credit is bounded by the stream's buffer; a
// grant that would overflow it fails without sending.
func (st *ClientStream) Grant(n int) error {
	if n <= 0 {
		return nil
	}
	st.mu.Lock()
	if st.done {
		err := ErrStreamBroken
		st.mu.Unlock()
		return err
	}
	if st.live+len(st.ch)+n > cap(st.ch)-1 {
		st.mu.Unlock()
		return fmt.Errorf("rt: stream grant of %d overflows the receive window", n)
	}
	st.live += n
	st.mu.Unlock()
	if err := sendStreamCtl(st.s.conn, streamGrant, st.xid, uint32(n)); err != nil {
		// A grant that cannot reach the server means the link under the
		// stream is gone: classify like any mid-stream transport death
		// (the session reader races to the same conclusion).
		return retryable(fmt.Errorf("%w: %v", ErrStreamBroken, err))
	}
	return nil
}

// Cancel tears the stream down from the consumer side: the server's
// sender unblocks with ErrStreamCanceled, buffered chunks are released,
// and Recv reports ErrStreamCanceled from now on. Safe to call at any
// point, from any goroutine, more than once.
func (st *ClientStream) Cancel() {
	st.s.unregisterStream(st.xid)
	if !st.terminate(ErrStreamCanceled) {
		// Already terminal (the server finished first, or a previous
		// Cancel won). The consumer is walking away regardless, so
		// chunks still buffered ahead of the terminal marker must go
		// back to the pool.
		st.drain()
		return
	}
	// Best-effort: the server may already be gone, which is fine — its
	// sender fails with the connection.
	sendStreamCtl(st.s.conn, streamCancel, st.xid, 0)
	st.drain()
}

// terminate delivers the terminal status into the channel exactly once,
// reporting whether this call was the one that ended the stream. The
// credit invariant (live + buffered < cap) guarantees the non-blocking
// send has room.
func (st *ClientStream) terminate(err error) bool {
	st.mu.Lock()
	if st.done {
		st.mu.Unlock()
		return false
	}
	st.done = true
	st.mu.Unlock()
	st.deliverTerminal(err)
	return true
}

// deliverTerminal pushes the terminal marker, displacing buffered
// chunks if the channel is full (the stream is over; they will never be
// consumed). The two-way select cannot block: a channel is always
// either non-full or non-empty.
func (st *ClientStream) deliverTerminal(err error) {
	for {
		// Send first, displace only on a full channel: a combined
		// two-way select would pick at random when both are ready and
		// throw away a deliverable chunk.
		select {
		case st.ch <- streamMsg{err: err}:
			return
		default:
		}
		select {
		case m := <-st.ch:
			if m.dec != nil {
				putDecoder(m.dec)
			}
		default:
		}
	}
}

// drain releases chunk decoders buffered ahead of the terminal marker
// so a cancelled or abandoned stream leaks nothing. The terminal marker
// itself is preserved (pushed back) — a later Recv must still find it.
func (st *ClientStream) drain() {
	for {
		select {
		case m := <-st.ch:
			if m.dec != nil {
				putDecoder(m.dec)
				continue
			}
			// The terminal marker: put it back for Recv and stop (the
			// channel was just emptied down to it, so there is room).
			st.ch <- m
			return
		default:
			return
		}
	}
}

// deliverChunk hands one positioned chunk decoder to the consumer.
// Called by the session reader with session.mu held (which is what
// makes lookup-and-deliver atomic against unregister). A chunk beyond
// the granted credit is a protocol violation and tears the stream down.
func (st *ClientStream) deliverChunk(d *Decoder) {
	st.mu.Lock()
	if st.done {
		st.mu.Unlock()
		putDecoder(d)
		return
	}
	if st.live == 0 {
		// The server sent more chunks than we granted: the window
		// contract is broken and buffer room is no longer guaranteed.
		st.done = true
		st.mu.Unlock()
		putDecoder(d)
		st.deliverTerminal(fmt.Errorf("%w: chunk beyond granted credit", ErrStreamBroken))
		return
	}
	st.live--
	st.delivered++
	// Ownership handoff, not retention: the consumer's Recv releases
	// the decoder. The credit invariant (live + buffered < cap)
	// guarantees room, so the send cannot block.
	st.ch <- streamMsg{dec: d} //lint:allow poolescape
	st.mu.Unlock()
}

// streamFrame routes one structurally-valid stream frame arriving on a
// client session. Unknown or retired XIDs are dropped (a cancelled
// stream keeps receiving in-flight chunks for a while; that is benign,
// not desynchronization). lease is the caller's reference on the
// frame's receive buffer: a delivered chunk's decoder keeps it until the
// consumer's Recv or Cancel hands the chunk back; every other frame
// releases it here.
func (c *Client) streamFrame(s *session, kind, xid, arg uint32, payload []byte, lease *Lease) {
	metrics := c.Metrics
	s.mu.Lock()
	st, ok := s.streams[xid]
	if ok && kind == streamChunk {
		d := getDecoder()
		if metrics != nil {
			d.EnableStats(true)
			d.sink = metrics
		}
		d.resetLease(payload, lease)
		st.deliverChunk(d)
		s.mu.Unlock()
		return
	}
	lease.Release()
	if !ok {
		stale := s.retired.has(xid)
		s.mu.Unlock()
		if metrics != nil && stale {
			metrics.StaleReplies.Add(1)
		}
		return
	}
	switch kind {
	case streamEnd:
		delete(s.streams, xid)
		s.retired.add(xid)
		s.mu.Unlock()
		// The end frame's arg is the sender's chunk count. A shortfall
		// means frames were lost in transit after the credit window
		// admitted them — a silently short transfer must classify as
		// broken, never as a clean end (a surplus is duplication, the
		// same contract violation from the other side).
		st.mu.Lock()
		delivered := st.delivered
		st.mu.Unlock()
		if delivered != arg {
			st.terminate(retryable(fmt.Errorf("%w: short delivery (%d of %d chunks)",
				ErrStreamBroken, delivered, arg)))
		} else {
			st.terminate(io.EOF)
		}
	case streamErr:
		delete(s.streams, xid)
		s.retired.add(xid)
		s.mu.Unlock()
		st.terminate(fmt.Errorf("rt: stream: %w", ErrSystem))
	default:
		// grant/cancel are upstream-only; a server echoing one is noise.
		s.mu.Unlock()
	}
}

// --- Server side --------------------------------------------------------------

// connStreams is one served connection's stream registry: credit
// ledgers keyed by request XID, shared between the decode loop (which
// applies grant/cancel control frames) and the workers running stream
// handlers (which block on credit). ServeConn fails the registry before
// waiting for its workers, so handlers never outlive the connection.
type connStreams struct {
	conn Conn

	mu      sync.Mutex
	m       map[uint32]*serverStream
	retired retiredRing
	failed  error
}

// serverStream is one stream's server-side credit ledger.
type serverStream struct {
	credits  int
	canceled bool
	cond     *sync.Cond // on connStreams.mu
}

func newConnStreams(conn Conn) *connStreams {
	return &connStreams{conn: conn, m: make(map[uint32]*serverStream)}
}

// ensure returns the ledger for xid, creating it if this side arrived
// first (the decode loop's grant and the worker's NewStreamSender race
// benignly; whoever is first creates the entry).
func (cs *connStreams) ensure(xid uint32) *serverStream {
	st := cs.m[xid]
	if st == nil {
		st = &serverStream{cond: sync.NewCond(&cs.mu)}
		cs.m[xid] = st
	}
	return st
}

// control applies one upstream control frame from the decode loop.
func (cs *connStreams) control(kind, xid, arg uint32) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.failed != nil || cs.retired.has(xid) {
		// A grant for a finished stream: late, benign, dropped.
		return
	}
	st := cs.ensure(xid)
	switch kind {
	case streamGrant:
		st.credits += int(arg)
	case streamCancel:
		st.canceled = true
	}
	st.cond.Broadcast()
}

// finish retires a stream's ledger, reporting whether the consumer had
// cancelled it.
func (cs *connStreams) finish(xid uint32) (canceled bool, failed error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if st := cs.m[xid]; st != nil {
		canceled = st.canceled
		delete(cs.m, xid)
	}
	cs.retired.add(xid)
	return canceled, cs.failed
}

// fail poisons the registry (first error wins) and wakes every blocked
// sender so workers drain instead of deadlocking connection teardown.
func (cs *connStreams) fail(err error) {
	cs.mu.Lock()
	if cs.failed == nil {
		cs.failed = err
	}
	for _, st := range cs.m {
		st.cond.Broadcast()
	}
	cs.mu.Unlock()
}

// StreamSender is the producer end of one server-push stream, held by a
// streaming handler through its generated ServerStream wrapper. Send
// blocks until the consumer's credit admits the chunk; Finish sends the
// terminal frame. A sender is single-producer: the handler goroutine.
type StreamSender struct {
	cs  *connStreams
	st  *serverStream
	xid uint32
	// ended suppresses the terminal frame when Send already observed
	// cancellation or connection failure.
	ended bool
	// sent counts successfully transmitted chunks; the end frame
	// carries it so the consumer can detect a short delivery.
	sent uint32
}

// NewStreamSender binds a sender to the request being dispatched.
// Generated stream dispatch arms call it after decoding arguments (and
// after setting OneWay, which suppresses the automatic reply that a
// single-shot operation would get).
func NewStreamSender(h *ReqHeader) *StreamSender {
	cs := h.streams
	if cs == nil {
		// Dispatched outside a serving connection (direct tests, exotic
		// embeddings): a detached sender whose Send reports the absence.
		return &StreamSender{xid: h.XID}
	}
	cs.mu.Lock()
	st := cs.ensure(h.XID)
	cs.mu.Unlock()
	return &StreamSender{cs: cs, st: st, xid: h.XID}
}

// Send transmits one chunk, blocking until the consumer has granted
// credit for it. It returns ErrStreamCanceled once the consumer
// cancels and an error matching ErrStreamBroken once the connection
// fails; either way the handler should unwind (its remaining work is
// unobservable).
func (sn *StreamSender) Send(marshal func(*Encoder)) error {
	cs := sn.cs
	if cs == nil {
		sn.ended = true
		return fmt.Errorf("%w: no stream transport attached", ErrStreamBroken)
	}
	cs.mu.Lock()
	st := sn.st
	for st.credits == 0 && !st.canceled && cs.failed == nil {
		st.cond.Wait()
	}
	if st.canceled {
		cs.mu.Unlock()
		sn.ended = true
		return ErrStreamCanceled
	}
	if err := cs.failed; err != nil {
		cs.mu.Unlock()
		sn.ended = true
		return fmt.Errorf("%w: %v", ErrStreamBroken, err)
	}
	st.credits--
	cs.mu.Unlock()

	e := getEncoder()
	appendStreamHeader(e, streamChunk, sn.xid, 0)
	marshal(e)
	err := cs.conn.Send(e.Bytes())
	putEncoder(e)
	if err != nil {
		cs.fail(err)
		sn.ended = true
		return fmt.Errorf("%w: %v", ErrStreamBroken, err)
	}
	sn.sent++
	return nil
}

// Finish ends the stream: a clean end frame after workErr == nil, an
// error frame otherwise (the consumer's Recv reports ErrSystem, exactly
// as a failing single-shot dispatch would). Generated dispatch arms
// call it with the handler's return value; it is a no-op when the
// stream already ended (cancel, connection failure, detached sender).
func (sn *StreamSender) Finish(workErr error) {
	cs := sn.cs
	if cs == nil || sn.ended {
		return
	}
	sn.ended = true
	canceled, failed := cs.finish(sn.xid)
	if canceled || failed != nil {
		return // nobody is listening
	}
	kind, arg := streamEnd, sn.sent
	if workErr != nil {
		kind, arg = streamErr, streamErrWork
	}
	if err := sendStreamCtl(cs.conn, kind, sn.xid, arg); err != nil {
		cs.fail(err)
	}
}
