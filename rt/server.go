package rt

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Dispatch demultiplexes one request to a work function: it decodes the
// arguments from d, invokes the implementation, and (for two-way
// operations) encodes the reply payload into e. Returning ErrNoSuchOp
// produces a protocol-level system error reply.
//
// With Workers > 1 a dispatcher runs concurrently with itself on the
// same connection; implementations must be safe for concurrent use
// (generated dispatchers are — each invocation works on its own
// decoder/encoder pair and only calls the user implementation).
type Dispatch func(h *ReqHeader, d *Decoder, e *Encoder) error

// ErrNoSuchOp reports an unknown operation to the dispatcher.
var ErrNoSuchOp = errors.New("rt: no such operation")

// Server owns registered dispatchers and serves connections. Generated
// Register* functions install one Dispatch per interface.
//
// Each connection runs a pipeline: a decode loop reads and parses
// request headers, feeding a bounded pool of worker goroutines that
// dispatch and write replies. Replies therefore may complete — and be
// sent — out of order; the multiplexed Client matches them by XID.
// Oneway requests occupy a worker but never a reply. When the
// connection closes, queued requests drain before ServeConn returns.
type Server struct {
	proto Protocol

	// Workers bounds the number of requests one connection processes
	// concurrently. The default (0) means 1: requests complete in
	// arrival order, the pre-pipelining behaviour (decode of the next
	// request still overlaps the current dispatch). Raise it to let
	// cheap requests overtake expensive ones on the same connection.
	// Set before serving.
	Workers int
	// Queue bounds the decoded-but-undispatched request backlog per
	// connection (backpressure: the decode loop stops reading when the
	// queue is full). The default (0) means 2×Workers. Set before
	// serving.
	Queue int

	// MaxMessage, when positive, bounds accepted request frames. On
	// transports that pre-validate frame lengths (TCP record marking),
	// the bound is applied *before* the fragment buffer is allocated,
	// so a hostile frame claiming a huge body cannot force an
	// oversized allocation; other transports drop oversized frames
	// after receipt and keep serving. Dropped frames count in
	// Metrics.Oversized. Set before serving.
	MaxMessage int
	// IdleTimeout, when positive, reaps connections whose read side
	// has been silent for the duration (deadline-capable transports
	// only: TCP and UDP). Reaped connections end cleanly — no error —
	// and count in Metrics.IdleReaped. Set before serving.
	IdleTimeout time.Duration
	// DupWindow, when positive, remembers that many recent request
	// XIDs per connection and suppresses duplicates (a retransmitting
	// client or duplicating datagram link): a duplicate whose reply is
	// already cached is answered by re-sending the cached reply
	// without re-dispatching; one still in progress is dropped (its
	// reply is coming). Both count in Metrics.DroppedDupes. Set
	// before serving.
	DupWindow int

	// Admission, when non-nil, bounds the server's weighted outstanding
	// work: requests that would exceed Admission.MaxLoad are answered
	// with ReplyOverloaded straight from the decode loop — no queue
	// slot, no worker — so overload degrades to shedding instead of
	// collapse. Rejections count in Metrics.AdmissionRejects. One
	// Admission may be shared across servers. Set before serving.
	Admission *Admission

	// Metrics, when non-nil, collects per-operation dispatch counters,
	// latency histograms, byte totals, transport-level counters
	// (connections, dropped malformed headers, connection failures),
	// and the QueueDepth gauge. It must be set before serving and not
	// changed after; nil (the default) costs one pointer test per
	// request.
	Metrics *Metrics

	// Tracer, when non-nil, records a SpanServerDispatch span for every
	// request that arrived carrying a sampled trace annotation, parented
	// to the client attempt span that sent it (span.go). Requests the
	// server refuses — admission rejects, duplicate suppressions — are
	// recorded as zero-work spans with cause-labeled events so the
	// client-side gap is explainable; requests dropped for a malformed
	// header and connections that die are recorded as error spans.
	// Untraced and unsampled requests cost one pointer test. Share one
	// Tracer between client and server in-process to land whole call
	// trees in one ring. Set before serving.
	Tracer *Tracer

	mu       sync.RWMutex
	byProg   map[uint64]Dispatch
	fallback Dispatch

	// draining, once set by Drain, sheds every newly arriving request
	// with ReplyOverloaded (failover-safe) while in-flight work
	// finishes; connMu/conns is the registry of live served
	// connections Drain coordinates (lifecycle.go).
	draining atomic.Bool
	connMu   sync.Mutex
	conns    map[*servingConn]struct{}
}

// NewServer builds a server for one message protocol.
func NewServer(proto Protocol) *Server {
	return &Server{proto: proto, byProg: map[uint64]Dispatch{}}
}

// Register installs a dispatcher for an ONC (prog, vers) pair; prog=0,
// vers=0 installs the default dispatcher (GIOP/Mach/Fluke servers, which
// demultiplex purely on operation).
func (s *Server) Register(prog, vers uint32, d Dispatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prog == 0 && vers == 0 {
		s.fallback = d
		return
	}
	s.byProg[uint64(prog)<<32|uint64(vers)] = d
}

func (s *Server) lookup(h *ReqHeader) Dispatch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if d, ok := s.byProg[uint64(h.Prog)<<32|uint64(h.Vers)]; ok {
		return d
	}
	return s.fallback
}

// deadlineConn is the optional transport capability behind
// Server.IdleTimeout (TCP and UDP connections implement it; in-process
// pipes have no read deadlines).
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
}

// maxMessageConn is the optional transport capability behind
// Server.MaxMessage: transports that learn a frame's length before
// reading its body (TCP record marking) enforce the bound *before*
// allocating the body buffer.
type maxMessageConn interface {
	SetMaxMessage(n int)
}

// dupCache is a per-connection window of recent request XIDs for
// duplicate suppression (UDP retransmits, duplicating links). Entries
// progress from in-progress (reply nil) to answered (reply cached);
// eviction is FIFO by arrival.
type dupCache struct {
	mu     sync.Mutex
	window int
	seen   map[uint32][]byte // nil value: in progress or oneway
	order  []uint32          // ring of insertion order
	next   int
	full   bool
}

func newDupCache(window int) *dupCache {
	return &dupCache{
		window: window,
		seen:   make(map[uint32][]byte, window),
		order:  make([]uint32, window),
	}
}

// begin records a fresh XID, or reports a duplicate along with the
// cached reply (nil while the original is still in progress or was
// oneway).
func (dc *dupCache) begin(xid uint32) (dup bool, cached []byte) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if reply, ok := dc.seen[xid]; ok {
		return true, reply
	}
	if dc.full {
		delete(dc.seen, dc.order[dc.next])
	}
	dc.order[dc.next] = xid
	dc.seen[xid] = nil
	dc.next++
	if dc.next == dc.window {
		dc.next, dc.full = 0, true
	}
	return false, nil
}

// finish caches the sent reply for xid so a retransmitted request can
// be answered without re-dispatching. reply must be a private copy.
func (dc *dupCache) finish(xid uint32, reply []byte) {
	dc.mu.Lock()
	if _, ok := dc.seen[xid]; ok {
		dc.seen[xid] = reply
	}
	dc.mu.Unlock()
}

// srvJob is one decoded request travelling from the decode loop to a
// worker. Passed by value through the queue channel (no per-request
// allocation); the decoder is pooled and released by the worker.
type srvJob struct {
	h        ReqHeader
	dec      *Decoder
	reqBytes int
	begin    time.Time
	// admWeight is the admission cost acquired for this request; the
	// worker releases it when the request finishes.
	admWeight int64
}

// connFail records the first reply-write failure on a connection and
// closes it so the decode loop unblocks; ServeConn reports the error.
type connFail struct {
	mu  sync.Mutex
	err error
}

func (f *connFail) record(conn Conn, err error) {
	f.mu.Lock()
	first := f.err == nil
	if first {
		f.err = err
	}
	f.mu.Unlock()
	if first {
		conn.Close()
	}
}

func (f *connFail) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// ServeConn answers requests on one connection until it closes: the
// decode loop parses headers and feeds the worker pool; workers
// dispatch and send replies (possibly out of order). Remaining queued
// requests drain before ServeConn returns.
func (s *Server) ServeConn(conn Conn) error {
	metrics := s.Metrics
	if metrics != nil {
		metrics.Conns.Add(1)
	}

	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	qlen := s.Queue
	if qlen < 1 {
		qlen = 2 * workers
	}
	if s.MaxMessage > 0 {
		if mc, ok := conn.(maxMessageConn); ok {
			// Push the bound below the framing layer: hostile length
			// fields are rejected before the body buffer exists.
			mc.SetMaxMessage(s.MaxMessage)
		}
	}
	var idle deadlineConn
	if s.IdleTimeout > 0 {
		idle, _ = conn.(deadlineConn)
	}
	sc := &servingConn{
		conn: conn, cs: newConnStreams(conn), calls: newConnCalls(),
		jobs: make(chan srvJob, qlen), metrics: metrics,
	}
	if s.DupWindow > 0 {
		sc.dups = newDupCache(s.DupWindow)
	}
	s.connMu.Lock()
	if s.conns == nil {
		s.conns = make(map[*servingConn]struct{})
	}
	s.conns[sc] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, sc)
		s.connMu.Unlock()
	}()
	if s.draining.Load() {
		// A connection arriving mid-drain was not covered by Drain's
		// announcement sweep: tell its client immediately.
		sendStreamCtl(conn, frameGoAway, 0, 0)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			s.worker(sc)
		}()
	}

	// parts is the batch splitter's scratch, reused across frames.
	var parts [][]byte
	var loopErr error
	for {
		if idle != nil {
			idle.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		// The lease on the frame's receive buffer travels with it: every
		// path below hands it to acceptFrame or releases it.
		msg, lease, err := RecvLease(conn)
		if err != nil {
			var ne net.Error
			if idle != nil && errors.As(err, &ne) && ne.Timeout() {
				// Silent past the idle deadline: reap the connection
				// cleanly rather than surfacing a transport error.
				if metrics != nil {
					metrics.IdleReaped.Add(1)
				}
				conn.Close()
				break
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, ErrClosed) {
				loopErr = err
			}
			break
		}
		if s.MaxMessage > 0 && len(msg) > s.MaxMessage {
			// Transports without pre-validation (datagrams, pipes)
			// enforce the bound here, after receipt: drop and go on.
			if metrics != nil {
				metrics.Oversized.Add(1)
			}
			lease.Release()
			continue
		}
		var ok bool
		if parts, ok = appendBatchParts(parts, msg); ok {
			// A batch frame from a coalescing client: unpack and admit
			// each packed request independently, in order. Each part
			// holds its own reference, so the frame recycles when the
			// last part's decoder is released.
			if metrics != nil {
				metrics.BatchedCalls.Add(uint64(len(parts)))
			}
			lease.retain(len(parts) - 1)
			for _, part := range parts {
				s.acceptFrame(sc, part, lease)
			}
			clear(parts)
			continue
		}
		s.acceptFrame(sc, msg, lease)
	}

	// Graceful drain: stop feeding, let the workers finish what is
	// queued, then surface any reply-write failure. Failing the stream
	// registry first unblocks any handler waiting on chunk credit —
	// no more grants are coming — so the drain cannot deadlock.
	close(sc.jobs)
	sc.cs.fail(ErrClosed)
	wg.Wait()
	if loopErr == nil {
		if serr := sc.fail.get(); serr != nil && !errors.Is(serr, io.EOF) && !errors.Is(serr, ErrClosed) {
			loopErr = serr
		}
	}
	return loopErr
}

// acceptFrame processes one received request message — whether it
// arrived as its own transport frame or packed inside a batch frame:
// parse the header, suppress duplicates, pass admission control, and
// hand the request to the worker pool. lease is the caller's reference
// on the receive buffer backing msg (nil when the conn has none to
// give); it passes to the request decoder, whose release gives it back,
// or is released here when the frame dies first.
func (s *Server) acceptFrame(sc *servingConn, msg []byte, lease *Lease) {
	metrics := sc.metrics
	if kind, sxid, arg, _, ok := SplitStream(msg); ok {
		// Upstream control frames from the client: stream credit and
		// cancellation applied to the stream ledger, call cancellation
		// applied to the in-flight call registry. Downstream kinds
		// arriving here are malformed noise — dropped.
		switch kind {
		case streamGrant, streamCancel:
			sc.cs.control(kind, sxid, arg)
		case frameCallCancel:
			// The client stopped waiting on call sxid: cancel its
			// handler context if it is dispatching (counted here), or
			// remember the XID so the worker sheds it from the queue
			// (counted there).
			if sc.calls.cancel(sxid) && metrics != nil {
				metrics.CanceledCalls.Add(1)
			}
		}
		lease.Release()
		return
	}
	reqBytes := len(msg)
	// Strip the optional annotations. The deadline prefix is outermost;
	// both are stripped unconditionally — an annotating client must
	// interoperate with a server that has no Tracer attached — and
	// spans are recorded only when this server samples.
	budget, msg, hasDeadline := SplitDeadline(msg)
	tc, msg, traced := SplitTrace(msg)
	var begin time.Time
	if metrics != nil || hasDeadline || (s.Tracer != nil && traced && tc.Sampled) {
		// Someone observes the request, or it carries a wire budget —
		// which is relative: pinning it to this host's clock here
		// charges the queue wait against it too.
		begin = time.Now()
	}
	d := getDecoder()
	if metrics != nil {
		d.EnableStats(true)
	}
	d.resetLease(msg, lease)
	h, err := s.proto.ReadRequest(d)
	if err != nil {
		// Malformed header: nothing identifies the caller, so no
		// reply is possible — count the drop instead of losing it
		// invisibly.
		if metrics != nil {
			metrics.BadHeaders.Add(1)
			metrics.addDec(d.TakeStats())
		}
		if tr := s.Tracer; tr != nil {
			recordErrorSpan(tr, SpanConn, "bad-header", 0, time.Now(), err)
		}
		putDecoder(d)
		return
	}
	h.Trace, h.Traced = tc, traced
	h.streams = sc.cs
	h.calls = sc.calls
	if hasDeadline {
		h.Deadline, h.HasDeadline = begin.Add(budget), true
		if budget <= 0 {
			// Already expired on arrival (writeDeadline clamps negative
			// budgets to zero). The handler never runs.
			s.refuse(sc, &h, d, begin, &refuseExpired)
			return
		}
	}
	if s.draining.Load() {
		// Lameduck: GOAWAY is out (or about to be) and this request
		// arrived anyway.
		s.refuse(sc, &h, d, begin, &refuseDraining)
		return
	}
	if sc.dups != nil {
		if dup, cached := sc.dups.begin(h.XID); dup {
			// A retransmitted request: re-send the cached reply if
			// the original already answered (the client's first
			// reply may have been lost); drop it if the original is
			// still in progress or was oneway. Never re-dispatch.
			if cached == nil {
				s.refuse(sc, &h, d, begin, &refuseDupInFlight)
				return
			}
			s.refuse(sc, &h, d, begin, &refuseDupAnswered)
			if err := sc.conn.Send(cached); err != nil {
				sc.fail.record(sc.conn, err)
			}
			return
		}
	}
	var admWeight int64
	if adm := s.Admission; adm != nil {
		admWeight = adm.weight(&h)
		if !adm.tryAcquire(admWeight) {
			// The fast-reject path: no queue slot, no worker. The
			// overload reply is tiny and written straight from the
			// decode loop, so shedding stays cheap precisely when the
			// server is busiest.
			s.refuse(sc, &h, d, begin, &refuseAdmission)
			return
		}
	}
	if metrics != nil {
		metrics.QueueDepth.Add(1)
	}
	sc.inflight.Add(1)
	// Ownership handoff, not retention: the acceptor passes the
	// decoder to exactly one worker, which releases it after
	// dispatch.
	sc.jobs <- srvJob{h: h, dec: d, reqBytes: reqBytes, begin: begin, admWeight: admWeight} //lint:allow poolescape
}

// refusal is one reason the server declines to dispatch a parsed
// request: what (if anything) it answers, which counter it bumps, and
// how the zero-work span explains itself.
type refusal struct {
	// status is the header-only reply's status; ReplyOK means nobody is
	// waiting for an answer and none is sent.
	status uint32
	count  func(*Metrics) *atomic.Uint64
	// errStr is the refusal span's Err ("" for duplicate suppression,
	// which is not a failure); cause and detail label its event.
	errStr, cause, detail string
}

// The counters refusals bump, as selectors over a Metrics that may be
// nil until refuse checks it.
func expiredRejects(m *Metrics) *atomic.Uint64   { return &m.ExpiredRejects }
func drainRejects(m *Metrics) *atomic.Uint64     { return &m.DrainRejects }
func admissionRejects(m *Metrics) *atomic.Uint64 { return &m.AdmissionRejects }
func canceledCalls(m *Metrics) *atomic.Uint64    { return &m.CanceledCalls }
func droppedDupes(m *Metrics) *atomic.Uint64     { return &m.DroppedDupes }

var (
	// Terminal: the client's end-to-end budget cannot revive.
	refuseExpired       = refusal{ReplyExpired, expiredRejects, "expired", "expired-reject", "propagated deadline passed before dispatch"}
	refuseExpiredQueued = refusal{ReplyExpired, expiredRejects, "expired", "expired-reject", "propagated deadline passed while queued"}
	// Retryable overload: the request provably did not execute, so the
	// client's pool fails it over to a healthy server and no call is
	// lost to the drain.
	refuseDraining    = refusal{ReplyOverloaded, drainRejects, "overloaded", "drain-reject", "shed during lameduck drain"}
	refuseDrainKilled = refusal{ReplyOverloaded, drainRejects, "overloaded", "drain-kill", "shed from the queue at the drain deadline"}
	refuseAdmission   = refusal{ReplyOverloaded, admissionRejects, "overloaded", "admission-reject", "shed before dispatch by admission control"}
	// No reply: the client abandoned the call, or the original's reply
	// answers the duplicate.
	refuseCanceled    = refusal{ReplyOK, canceledCalls, "canceled", "client-cancel", "shed before dispatch; the client abandoned the call"}
	refuseDupAnswered = refusal{ReplyOK, droppedDupes, "", "dup-cached-resend", "retransmitted request answered from the reply cache"}
	refuseDupInFlight = refusal{ReplyOK, droppedDupes, "", "dup-inflight-drop", "retransmitted request dropped; original still in progress or oneway"}
)

// refuse declines one parsed request without dispatching it: the pooled
// decoder is released, the refusal is counted, a header-only status
// reply is written straight from the calling goroutine (oneways get
// none — nothing waits for them), and a sampled request gets a
// zero-work SpanServerDispatch whose cause-labeled event explains the
// client-side gap.
func (s *Server) refuse(sc *servingConn, h *ReqHeader, d *Decoder, begin time.Time, why *refusal) {
	if m := sc.metrics; m != nil {
		why.count(m).Add(1)
		m.addDec(d.TakeStats())
	}
	putDecoder(d)
	if why.status != ReplyOK && !h.OneWay {
		enc := getEncoder()
		s.proto.WriteReply(enc, &RepHeader{XID: h.XID, Status: why.status})
		if err := sc.conn.Send(enc.Bytes()); err != nil {
			sc.fail.record(sc.conn, err)
		}
		putEncoder(enc)
	}
	if tracer := s.Tracer; tracer != nil && h.Traced && h.Trace.Sampled {
		tracer.record(&Span{
			Trace: h.Trace.TraceID, ID: tracer.nextID(), Parent: h.Trace.SpanID,
			Kind: SpanServerDispatch, Op: opLabel(h), XID: h.XID,
			Start: begin, Dur: time.Since(begin), Sampled: true, Err: why.errStr,
			Events: []SpanEvent{{Offset: time.Since(begin), Cause: why.cause, Detail: why.detail}},
		})
	}
}

// safeDispatch invokes a dispatcher with panic recovery: a panicking
// handler is converted into a dispatch error (and so into an RPC
// system-error reply for the caller) instead of killing the worker —
// one poisoned request must not take down the pool, the connection, or
// the process.
func safeDispatch(dispatch Dispatch, h *ReqHeader, d *Decoder, e *Encoder) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rt: handler panic: %v", r)
			panicked = true
		}
	}()
	err = dispatch(h, d, e)
	return err, false
}

// worker dispatches queued requests until the queue closes. Each worker
// owns one reply encoder, reused across requests (the §3.1 buffer-reuse
// optimization, scoped per worker so replies never share a buffer).
// Reply writes go straight to the connection: Conn.Send is safe for
// concurrent writers, which serializes whole replies at the transport.
func (s *Server) worker(sc *servingConn) {
	conn, metrics := sc.conn, sc.metrics
	var enc Encoder
	if metrics != nil {
		enc.EnableStats(true)
	}
	// Both headers live outside the loop: their addresses escape into
	// interface calls (lookup, WriteReply, dispatch), so per-iteration
	// declarations would cost one heap allocation per request.
	var h ReqHeader
	var rh RepHeader
	for job := range sc.jobs {
		if metrics != nil {
			metrics.QueueDepth.Add(-1)
		}
		h = job.h
		dec := job.dec
		// Pre-dispatch sheds: the queue wait may have outlived the
		// call. A client-canceled request gets no reply (nobody is
		// waiting); a drain-killed one is refused as retryable
		// overload; an expired one as a terminal zero-work refusal.
		// The handler never runs in any of these.
		var why *refusal
		if canceled, killed := sc.calls.state(h.XID); canceled {
			why = &refuseCanceled
		} else if killed {
			why = &refuseDrainKilled
		} else if h.HasDeadline && !time.Now().Before(h.Deadline) {
			why = &refuseExpiredQueued
		}
		if why != nil {
			s.refuse(sc, &h, dec, job.begin, why)
			s.releaseJob(&job, sc)
			continue
		}
		dispatch := s.lookup(&h)
		enc.Reset()
		rh = RepHeader{XID: h.XID}
		var workErr error
		repBytes := 0
		if dispatch == nil {
			workErr = ErrNoSuchOp
			rh.Status = ReplySystemError
			s.proto.WriteReply(&enc, &rh)
		} else {
			// Reserve the reply header region, then let the dispatcher
			// append the payload; on failure — including a recovered
			// handler panic — rewrite a system-error reply.
			s.proto.WriteReply(&enc, &rh)
			var panicked bool
			workErr, panicked = safeDispatch(dispatch, &h, dec, &enc)
			if panicked && metrics != nil {
				metrics.PanicsRecovered.Add(1)
			}
			if workErr != nil {
				enc.Reset()
				rh.Status = ReplySystemError
				s.proto.WriteReply(&enc, &rh)
			}
		}
		if !h.OneWay {
			// Vectored when the skeleton aliased reply payload segments
			// and the transport can scatter/gather.
			if err := sendEncoded(conn, &enc); err != nil {
				sc.fail.record(conn, err)
			} else {
				repBytes = enc.Len()
				if sc.dups != nil {
					// Cache a private copy of the reply so a
					// retransmitted request re-sends it instead of
					// re-executing the operation.
					sc.dups.finish(h.XID, append([]byte(nil), enc.Bytes()...))
				}
			}
		}
		// Release the handler context, if the dispatch registered one
		// via (*ReqHeader).Context (frees its deadline timer and
		// detaches it from the cancel registry).
		sc.calls.finish(h.XID)
		if metrics != nil {
			op := metrics.Op(opLabel(&h))
			op.ReqBytes.Add(uint64(job.reqBytes))
			op.done(repBytes, workErr != nil, job.begin)
			if workErr != nil {
				metrics.DispatchErrors.Add(1)
			}
			if h.OneWay {
				metrics.Oneways.Add(1)
			}
			metrics.addEnc(enc.TakeStats())
			metrics.addDec(dec.TakeStats())
		}
		if tracer := s.Tracer; tracer != nil && h.Traced && h.Trace.Sampled {
			// The dispatch span: parented to the client attempt span
			// whose annotation rode in on the request, so the two sides
			// of the call link up with no shared clocks or channels.
			sp := &Span{
				Trace: h.Trace.TraceID, ID: tracer.nextID(), Parent: h.Trace.SpanID,
				Kind: SpanServerDispatch, Op: opLabel(&h), XID: h.XID,
				Start: job.begin, Dur: time.Since(job.begin), Sampled: true,
			}
			if workErr != nil {
				sp.Err = workErr.Error()
			}
			tracer.record(sp)
		}
		putDecoder(dec)
		s.releaseJob(&job, sc)
	}
}

// releaseJob returns one finished (or shed) job's resources: its
// weighted admission capacity — which bounds work in the whole
// pipeline, not just the queue — and the connection's in-flight gauge
// that Drain watches.
func (s *Server) releaseJob(job *srvJob, sc *servingConn) {
	if job.admWeight > 0 {
		s.Admission.release(job.admWeight)
	}
	sc.inflight.Add(-1)
}

// opLabel names an operation for the metrics registry: the wire or
// stub-provided operation name when known (generated dispatchers label
// h.OpName as they demultiplex), the numeric procedure otherwise.
func opLabel(h *ReqHeader) string {
	if h.OpName != "" {
		return h.OpName
	}
	return "proc-" + strconv.FormatUint(uint64(h.Proc), 10)
}

// Serve accepts connections until the listener closes, answering each on
// its own goroutine. Per-connection failures end only that connection;
// they are routed to the server's Metrics (ConnErrors) and Tracer (an
// error span) rather than being silently discarded.
func (s *Server) Serve(l Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			if err := s.ServeConn(conn); err != nil {
				s.connError(err)
			}
		}()
	}
}

// connError surfaces a connection-level failure through the
// observability layer.
func (s *Server) connError(err error) {
	if s.Metrics != nil {
		s.Metrics.ConnErrors.Add(1)
	}
	if tr := s.Tracer; tr != nil {
		recordErrorSpan(tr, SpanConn, "conn-error", 0, time.Now(), err)
	}
}
