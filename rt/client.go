package rt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBadXID reports a reply whose transaction id matches no call this
// client has in flight. Calls are multiplexed over the connection and
// replies are matched to callers by XID, so out-of-order replies are
// normal; a reply for an XID that was never issued (and is not in the
// retired window of recently completed or timed-out calls, whose late
// and duplicate replies are dropped silently and counted in
// StaleReplies) means the stream is desynchronized — a broken peer or
// frame corruption — and subsequent replies may misparse. The client
// poisons the session: every pending call returns this error; with a
// Redial function configured the next call transparently reconnects,
// otherwise every later Call fails too. The BadXIDs counter in an
// attached Metrics makes the condition visible to operators.
var ErrBadXID = errors.New("rt: reply xid matches no pending call (connection desynchronized)")

// ErrTimeout reports a call attempt that exceeded the client's per-call
// deadline. The call's reply slot is retired: if the reply arrives
// later it is dropped (and counted in StaleReplies) without disturbing
// other in-flight calls.
var ErrTimeout = errors.New("rt: call deadline exceeded")

// ErrExpired reports a call the server shed because its propagated
// deadline (the wire deadline annotation; see CallCtx) had already
// passed before dispatch. The handler provably did not run, but
// retrying is pointless — the end-to-end budget is spent — so the
// error classifies as non-retryable.
var ErrExpired = errors.New("rt: deadline expired before dispatch (server shed the call)")

// retiredWindow is the number of recently completed or abandoned XIDs a
// session remembers so that late or duplicated replies (timed-out
// calls, retransmitting links) are recognized and dropped instead of
// being mistaken for desynchronization.
const retiredWindow = 1024

// retiredRing is a fixed-size set of recently retired XIDs: a ring for
// FIFO eviction plus a map for O(1) membership. Zero-allocation in
// steady state (the map is pre-sized and insert/delete balance).
type retiredRing struct {
	set  map[uint32]struct{}
	ring [retiredWindow]uint32
	next int
	full bool
}

func (r *retiredRing) add(xid uint32) {
	if r.set == nil {
		r.set = make(map[uint32]struct{}, retiredWindow)
	}
	if r.full {
		delete(r.set, r.ring[r.next])
	}
	r.ring[r.next] = xid
	r.set[xid] = struct{}{}
	r.next++
	if r.next == retiredWindow {
		r.next, r.full = 0, true
	}
}

func (r *retiredRing) has(xid uint32) bool {
	_, ok := r.set[xid]
	return ok
}

// session is one connection's worth of client state: the in-flight
// table, the retired-XID window, and the poison marker. Retrying and
// reconnecting swap in a whole fresh session, so stale replies from a
// dying connection can never touch the new one's calls.
//
// Completion invariant (this is what makes concurrent fail/Close/
// timeout/delivery safe): a call completes exactly once, because every
// completer — the reply reader delivering, fail draining, or the
// issuing goroutine abandoning on timeout or send error — must first
// remove the call from pending under mu, and only the remover touches
// the call slot afterwards.
type session struct {
	conn Conn

	mu      sync.Mutex
	pending map[uint32]*call
	// streams is the open server-push stream table (stream.go), keyed —
	// like pending — by request XID, so one reader demultiplexes calls
	// and streams together.
	streams map[uint32]*ClientStream
	retired retiredRing
	// failed, once set, poisons the session: every pending call was
	// drained with it and every subsequent register on this session
	// returns it.
	failed   error
	readerOn bool
	// draining is set when the server announces lameduck drain (a
	// GOAWAY frame): calls already in flight will still complete, but
	// Healthy reports false so pools migrate new work to other
	// sessions before the server closes the connection.
	draining bool
}

func newSession(conn Conn) *session {
	return &session{conn: conn, pending: make(map[uint32]*call), streams: make(map[uint32]*ClientStream)}
}

// forget removes xid from the in-flight table, retiring it so a late or
// duplicate reply is dropped rather than treated as desynchronization.
// It reports whether the call was still pending (false means another
// completer got there first).
func (s *session) forget(xid uint32) bool {
	s.mu.Lock()
	_, ok := s.pending[xid]
	if ok {
		delete(s.pending, xid)
		s.retired.add(xid)
	}
	s.mu.Unlock()
	return ok
}

// register enters a reply slot — or, for a stream open, the stream —
// under xid, and reports whether the caller must start the session's
// reply reader. A poisoned session registers nothing.
func (s *session) register(xid uint32, ca *call, st *ClientStream) (startReader bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return false, s.failed
	}
	if st != nil {
		s.streams[xid] = st
	} else {
		s.pending[xid] = ca
	}
	startReader = !s.readerOn
	s.readerOn = true
	return startReader, nil
}

// fail poisons the session with err (first failure wins) and drains
// every pending call with it. Safe to call from multiple goroutines
// concurrently (reader on receive error, Close, a redialing caller):
// each pending call is drained by exactly one of them because removal
// from the table is what claims the right to complete it.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	drained := make([]*call, 0, len(s.pending))
	for xid, ca := range s.pending {
		delete(s.pending, xid)
		drained = append(drained, ca)
	}
	var streams []*ClientStream
	for xid, st := range s.streams {
		delete(s.streams, xid)
		streams = append(streams, st)
	}
	err = s.failed
	s.mu.Unlock()
	for _, ca := range drained {
		ca.err = err
		ca.done <- struct{}{}
	}
	for _, st := range streams {
		// A mid-transfer teardown is terminal for the stream: the
		// consumer cannot know how much arrived, so the classified
		// error says "re-issue from the start" (retryable — the
		// delivered prefix is discarded, nothing executed twice).
		st.terminate(retryable(fmt.Errorf("%w: %v", ErrStreamBroken, err)))
	}
}

func (s *session) failedErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// markDraining flags the session as draining, reporting whether this
// call was the first to do so.
func (s *session) markDraining() bool {
	s.mu.Lock()
	was := s.draining
	s.draining = true
	s.mu.Unlock()
	return !was
}

func (s *session) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Client issues RPCs over one connection. Calls are multiplexed: any
// number of goroutines may Call concurrently, each call is tagged with
// a fresh XID, and a dedicated reply-reader goroutine matches replies
// to callers by XID, so replies may complete out of order (a pipelined
// server is free to answer cheap requests before expensive ones).
//
// Marshal buffers follow the pooled ownership contract (see pool.go):
// each call marshals into a pooled Encoder released on send, and each
// reply arrives in a pooled Decoder that the caller — in practice the
// generated client stub — releases with Decoder.Release after
// unmarshaling.
//
// Fault tolerance is opt-in: with Retry, Redial, and/or Breaker set
// the client classifies failures (see ErrRetryable/ErrNotRetryable),
// re-attempts idempotent or never-sent calls under the retry policy,
// transparently reconnects poisoned sessions, and sheds load when the
// breaker opens. With all three nil (the default) failure handling is
// exactly the raw single-attempt behaviour.
type Client struct {
	proto Protocol

	// Prog and Vers identify the ONC program; ObjectKey the GIOP target.
	Prog      uint32
	Vers      uint32
	ObjectKey []byte

	// Metrics, when non-nil, collects per-operation call/error counts,
	// latency histograms, byte totals, encoder/decoder space-check
	// counters, fault-tolerance counters (Retries, Reconnects,
	// BreakerOpen, BreakerRejects), and the InFlight gauge. It must be
	// set before the first Call and not changed after; nil (the default)
	// costs one pointer test per call.
	Metrics *Metrics

	// Tracer, when non-nil, head-samples calls at its SampleRate and
	// records call/attempt spans (span.go); sampled calls carry the
	// trace annotation on the wire so the server's dispatch span joins
	// the same trace. With SampleRate 0 only failed calls are recorded
	// (always-sample-on-error) and nothing is propagated. Must be set
	// before the first Call; nil (the default) costs one pointer test
	// per call and the unsampled path does not allocate.
	Tracer *Tracer

	// Shard labels this client's spans, connection-error spans included,
	// with its pool session index (set by ClientPool; 0 for direct
	// clients). Set before the first Call.
	Shard int

	// Timeout, when positive, bounds each call attempt's wait for its
	// reply. An attempt that times out returns ErrTimeout (retried
	// under the Retry policy for idempotent operations); its late
	// reply, if it ever arrives, is dropped without poisoning the
	// connection. Set before the first Call.
	Timeout time.Duration

	// Retry, when non-nil, re-attempts failed calls that are safe to
	// retry: idempotent operations, and calls whose request provably
	// never reached the transport. Set before the first Call.
	Retry *RetryPolicy

	// Redial, when non-nil, reconnects a poisoned client: after a
	// receive failure, desynchronization, or injected reset drains the
	// session, the next call (or retry attempt) dials a fresh
	// connection and carries on. In-flight calls on the dead session
	// fail with the session's terminal error and are retried under the
	// Retry policy if eligible. Set before the first Call.
	Redial func() (Conn, error)

	// Breaker, when non-nil, sheds calls with ErrBreakerOpen after
	// consecutive transport failures (see Breaker). Set before the
	// first Call.
	Breaker *Breaker

	xid    atomic.Uint32
	closed atomic.Bool

	// sessMu guards the current-session pointer and serializes
	// redials (one goroutine dials; the rest wait and share the
	// result).
	sessMu sync.Mutex
	sess   *session
}

// NewClient wraps a connection with a message protocol.
func NewClient(conn Conn, proto Protocol) *Client {
	return &Client{
		proto:     proto,
		ObjectKey: []byte("flick"),
		sess:      newSession(conn),
	}
}

// Close releases the connection. Calls still in flight — and any Call
// issued afterwards — return ErrClosed deterministically rather than a
// raw transport error. Close is idempotent.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.sessMu.Lock()
	s := c.sess
	c.sessMu.Unlock()
	err := s.conn.Close()
	s.fail(ErrClosed)
	return err
}

// Healthy reports whether the client can plausibly complete a call
// right now: it is open, its breaker (if any) is not shedding, its
// session's server is not draining, and the session is either
// unpoisoned or redialable. ClientPool uses it to steer calls toward
// healthy sessions; a false answer is advisory (a half-open breaker
// may still admit a probe, a racing failure may still poison a healthy
// session). A draining session reports unhealthy so pools migrate
// traffic away before the server closes the socket; once it does, a
// redialable client turns healthy again and reconnects — to the
// restarted server — on its next call.
func (c *Client) Healthy() bool {
	if c.closed.Load() {
		return false
	}
	if b := c.Breaker; b != nil && !b.Ready() {
		return false
	}
	c.sessMu.Lock()
	s := c.sess
	c.sessMu.Unlock()
	s.mu.Lock()
	draining, ferr := s.draining, s.failed
	s.mu.Unlock()
	if draining && ferr == nil {
		// GOAWAY received and the socket is still up: in-flight work
		// completes, but new work belongs elsewhere.
		return false
	}
	if c.Redial == nil && ferr != nil {
		return false
	}
	return true
}

// PendingCalls returns the number of calls currently awaiting replies
// on the client's session (the in-flight table size), for the debug
// surface.
func (c *Client) PendingCalls() int {
	c.sessMu.Lock()
	s := c.sess
	c.sessMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// SessionErr returns the current session's poison error, or nil while
// the session is healthy. With Redial configured the error clears on
// the next call (which swaps in a fresh session).
func (c *Client) SessionErr() error {
	c.sessMu.Lock()
	s := c.sess
	c.sessMu.Unlock()
	return s.failedErr()
}

// session returns the current healthy session, transparently dialing a
// replacement when the current one is poisoned and a Redial function is
// configured. Only one goroutine dials; concurrent callers wait on
// sessMu and share the fresh session. The redial is reported to the
// observers of the call that triggered it.
func (c *Client) session(cd *callDesc) (*session, error) {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	s := c.sess
	ferr := s.failedErr()
	if ferr == nil {
		return s, nil
	}
	if c.Redial == nil {
		return nil, ferr
	}
	conn, err := c.Redial()
	if err != nil {
		return nil, fmt.Errorf("rt: redial: %w", err)
	}
	if c.closed.Load() {
		// Close raced the dial: don't resurrect a closed client.
		conn.Close()
		return nil, ErrClosed
	}
	s.conn.Close()
	ns := newSession(conn)
	c.sess = ns
	if cd.metrics != nil {
		cd.metrics.Reconnects.Add(1)
	}
	if cd.ct != nil {
		cd.ct.event("redial", fmt.Sprintf("reconnected after: %v", ferr))
	}
	return ns, nil
}

// Call performs one invocation: marshal writes the request payload into
// a pooled encoder; the returned decoder is positioned at the reply
// payload and owned by the caller, who must release it with
// Decoder.Release after unmarshaling. Oneway calls return (nil, nil)
// as soon as the transport accepts the request. Call is safe for
// concurrent use; calls proceed independently and may complete out of
// order. Call treats the operation as non-idempotent; generated stubs
// use CallIdem and pass the IDL's //flick:idempotent annotation.
func (c *Client) Call(proc uint32, opName string, oneway bool, marshal func(*Encoder)) (*Decoder, error) {
	return c.CallIdemCtx(nil, proc, opName, oneway, false, marshal)
}

// CallCtx is Call with a caller context, which participates in the
// call three ways. Trace continuation: when ctx carries a sampled
// TraceContext (a server handler forwarding via (*ReqHeader).Context,
// or ContextWithTrace), the call joins that trace as a child span
// instead of making a fresh sampling decision. Deadline propagation:
// a ctx deadline bounds the wait for the reply and travels on the wire
// as a deadline annotation, so the server inherits the remaining
// budget and sheds expired work before dispatch (ErrExpired).
// Cancellation: ctx.Done() aborts the call — before send, or during
// the wait, in which case a best-effort cancel frame releases the
// server-side work — classified as non-retryable context.Canceled /
// context.DeadlineExceeded.
func (c *Client) CallCtx(ctx context.Context, proc uint32, opName string, oneway bool, marshal func(*Encoder)) (*Decoder, error) {
	return c.CallIdemCtx(ctx, proc, opName, oneway, false, marshal)
}

// CallIdem is Call with an explicit idempotency flag, which gates
// retries: with a Retry policy attached, a failed attempt is re-sent
// only when the operation is idempotent or the request provably never
// reached the transport — otherwise the call fails fast with an error
// matching ErrNotRetryable, because retrying might execute the
// operation twice.
func (c *Client) CallIdem(proc uint32, opName string, oneway, idempotent bool, marshal func(*Encoder)) (*Decoder, error) {
	return c.CallIdemCtx(nil, proc, opName, oneway, idempotent, marshal)
}

// CallIdemCtx is CallIdem with a caller context (see CallCtx). A nil
// ctx is allowed and means "no propagated trace, deadline, or
// cancellation". The descriptor lives on this frame: a sync call is an
// async one whose promise never leaves the stack.
func (c *Client) CallIdemCtx(ctx context.Context, proc uint32, opName string, oneway, idempotent bool, marshal func(*Encoder)) (*Decoder, error) {
	// Field by field, not a literal: the compiler builds a literal this
	// size in a temporary and copies it (~20 ns a call).
	var cd callDesc
	cd.c, cd.ctx, cd.proc, cd.op, cd.oneway, cd.idempotent = c, ctx, proc, opName, oneway, idempotent
	return cd.resolve(cd.issue(marshal), marshal)
}

// callDesc is the one value that *is* a call. Every entry point — sync,
// async, stream open, pool dispatch — fills in the spec and drives the
// same four stages over it:
//
//	begin    one attempt's transmit half: session (redialing), ctx and
//	         budget, header + annotations, register-before-send, send
//	await    the attempt's collect half: the bounded wait for the reply,
//	         then the attempt span
//	settle   classification, breaker posting, paced re-attempts
//	observe  per-op metrics and the call span
//
// issue (observers, breaker gate, first begin) and resolve (await,
// settle, observe) are the two halves a Promise splits across its
// lifetime; a sync call runs them back to back on a descriptor that
// never leaves the caller's stack (no method may retain cd).
//
// The marshal function is the one part of a call that rides beside the
// descriptor instead of in it. Escape analysis is field-insensitive:
// the descriptor's ctx, op and client do reach the heap, so a marshal
// func stored next to them would be taken to as well, and every
// generated stub's closure — which captures the call's arguments —
// would be heap-allocated per call (TestStubClosureStaysOnStack).
type callDesc struct {
	// Spec: what to call. c is nil only on a ClientPool's descriptor,
	// which is re-targeted at one session per attempt (see on).
	c          *Client
	ctx        context.Context
	proc       uint32
	op         string
	oneway     bool
	idempotent bool
	// stream, when non-nil, makes this a stream open: begin registers it
	// in the session's stream table instead of a reply slot, so nothing
	// is awaited.
	stream *ClientStream

	// Observers, attached by issue/watch. ct is nil for unsampled calls;
	// issued is set only when someone observes.
	metrics *Metrics
	ct      *callTrace
	issued  time.Time

	// The attempt in progress, written by begin and consumed by await.
	s    *session
	ca   *call // the registered reply slot; nil when nothing is owed
	xid  uint32
	sent bool // the request may have reached the peer
	// attemptID is the open attempt span's ID, the one the wire
	// annotation carries, so the server's dispatch span parents to
	// exactly the attempt that sent it.
	attemptID    uint64
	attemptBegin time.Time
}

// on returns the descriptor's spec aimed at one client, with no
// observers or attempt state: how a pool runs its call on a session.
func (cd *callDesc) on(c *Client) callDesc {
	return callDesc{c: c, ctx: cd.ctx, proc: cd.proc, op: cd.op, oneway: cd.oneway, idempotent: cd.idempotent}
}

// watch attaches the client's observers. With Metrics and Tracer both
// nil (the default) it costs the two nil tests; an unsampled call gets
// no tracing state and no wire annotation, allocation-free.
func (cd *callDesc) watch() {
	c := cd.c
	cd.metrics = c.Metrics
	if tr := c.Tracer; tr != nil {
		cd.ct = startCallTrace(tr, cd.ctx, SpanClientCall, cd.op, c.Shard)
	}
	if cd.metrics != nil || c.Tracer != nil {
		cd.issued = time.Now()
	}
}

// issue is the first half of a call: attach observers, pass the breaker
// gate, and transmit the first attempt. A gate refusal is returned as
// the bare ErrBreakerOpen, which resolve treats as final.
func (cd *callDesc) issue(marshal func(*Encoder)) error {
	cd.watch()
	if b := cd.c.Breaker; b != nil && !b.allow() {
		if cd.metrics != nil {
			cd.metrics.BreakerRejects.Add(1)
		}
		cd.ct.event("breaker-reject", "call shed, breaker open")
		return ErrBreakerOpen
	}
	return cd.begin(marshal)
}

// resolve is the second half: collect the first attempt's reply, run
// the resilience loop when one is configured (without Retry, Redial and
// Breaker a call is exactly one raw attempt, errors unwrapped), and
// report the outcome to the observers.
func (cd *callDesc) resolve(err error, marshal func(*Encoder)) (*Decoder, error) {
	var d *Decoder
	if err != ErrBreakerOpen {
		d, err = cd.await(err)
		if c := cd.c; c.Retry != nil || c.Redial != nil || c.Breaker != nil {
			d, err = cd.settle(d, err, marshal)
		}
	}
	cd.observe(d, err)
	return d, err
}

// observe finalizes the call's observability: per-op metrics (calls,
// errors, reply bytes, issue-to-resolve latency) and the call span —
// or, for an unsampled failure, a lone error span (always-sample-on-
// error) with a never-propagated trace ID.
func (cd *callDesc) observe(d *Decoder, err error) {
	if m := cd.metrics; m != nil {
		repBytes := 0
		if d != nil {
			repBytes = d.Size()
		}
		m.Op(cd.op).done(repBytes, err != nil, cd.issued)
		if cd.oneway {
			m.Oneways.Add(1)
		}
	}
	if cd.ct != nil {
		cd.ct.finish(err)
	} else if tr := cd.c.Tracer; tr != nil && err != nil {
		recordErrorSpan(tr, SpanClientCall, cd.op, cd.c.Shard, cd.issued, err)
	}
}

// settle classifies the outcome of an already-made first attempt and,
// under the retry policy, paces and classifies any remaining attempts.
// Sync and async calls enter it the same way — from resolve, once the
// first attempt's reply is in — which is what makes promise errors
// classify exactly like sync errors. The retry budget, when set, bounds
// the re-attempt phase (it opens when settling begins, so an async
// caller's think time between issue and Wait is not charged against
// it).
func (cd *callDesc) settle(d *Decoder, err error, marshal func(*Encoder)) (*Decoder, error) {
	c, ctx, metrics, ct := cd.c, cd.ctx, cd.metrics, cd.ct
	attempts := 1
	if c.Retry != nil {
		attempts = c.Retry.attempts()
	}
	var deadline time.Time
	if c.Retry != nil && c.Retry.Budget > 0 {
		deadline = time.Now().Add(c.Retry.Budget)
	}
	var lastErr error
	for k := 0; ; k++ {
		if k > 0 {
			if metrics != nil {
				metrics.Retries.Add(1)
			}
			if ct != nil {
				ct.event("retry", fmt.Sprintf("attempt %d after: %v", k+1, lastErr))
			}
			sleep := c.Retry.backoff(k - 1)
			if !deadline.IsZero() {
				rem := time.Until(deadline)
				if rem <= 0 {
					break
				}
				if sleep > rem {
					sleep = rem
				}
			}
			if !sleepCtx(ctx, sleep) {
				// The caller gave up mid-backoff: no further attempts.
				return nil, notRetryable(ctx.Err())
			}
			d, err = cd.await(cd.begin(marshal))
		}
		if b := c.Breaker; b != nil && (err == nil || errors.Is(err, ErrSystem) || errors.Is(err, ErrExpired) || errors.Is(err, ErrOverloaded)) {
			// The server answered — a reply, a fault, or a shed — so the
			// transport works.
			b.success()
		}
		switch {
		case err == nil:
			return d, nil
		case errors.Is(err, ErrSystem):
			// Retrying a handler fault would re-execute. Terminal.
			return nil, err
		case errors.Is(err, ErrExpired):
			// Shed before dispatch, but the end-to-end budget is spent,
			// so retrying cannot help.
			ct.event("expired", "server shed the call, propagated deadline passed")
			return nil, notRetryable(err)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// The caller abandoned the call (or its deadline passed):
			// terminal by definition, and no evidence about transport
			// health either way, so the breaker is left alone.
			return nil, notRetryable(err)
		case errors.Is(err, ErrOverloaded):
			// Shed before dispatch: the operation did not execute, so the
			// loop re-attempts it under backoff even when non-idempotent.
			ct.event("admission-reject", "server shed the call before dispatch")
		case c.closed.Load():
			return nil, err
		default:
			if b := c.Breaker; b != nil && b.failure() {
				if metrics != nil {
					metrics.BreakerOpen.Add(1)
				}
				ct.event("breaker-open", "consecutive failures tripped the breaker")
			}
			if !cd.idempotent && cd.sent {
				// The request may have reached the server; re-sending a
				// non-idempotent operation could execute it twice.
				return nil, notRetryable(err)
			}
		}
		lastErr = err
		if k+1 >= attempts || (!deadline.IsZero() && !time.Now().Before(deadline)) {
			break
		}
	}
	return nil, retryable(lastErr)
}

// begin is the transmit half of one attempt: session acquisition
// (redialing if needed), the ctx check and deadline budget, marshal,
// register-before-send, and transmit. It opens the attempt span and
// leaves the attempt's state in the descriptor for await: a registered
// reply slot for a two-way call, none for a oneway or a stream open.
// cd.sent reports whether the request may have reached the peer — false
// only when it provably did not: the attempt failed before the send, or
// the transport refused the whole message deterministically. It is
// split from await so the async path can transmit many requests before
// collecting any reply.
func (cd *callDesc) begin(marshal func(*Encoder)) error {
	c, ctx, metrics, ct := cd.c, cd.ctx, cd.metrics, cd.ct
	cd.xid, cd.sent = 0, false // a re-attempt starts clean; await left no slot behind
	if ct != nil {
		cd.attemptID, cd.attemptBegin = ct.tr.nextID(), time.Now()
	}
	if c.closed.Load() {
		return ErrClosed
	}
	if ctx != nil && ctx.Err() != nil {
		// Honor ctx before spending any work on the attempt: a canceled
		// context does not even redial.
		return ctx.Err()
	}
	s, err := c.session(cd)
	if err != nil {
		return err
	}
	var budget time.Duration
	hasBudget := false
	if ctx != nil {
		// Checked (again) and budgeted only now: acquiring the session
		// may have blocked in Redial, and a budget taken before it would
		// put a request on the wire whose caller has already given up.
		// From here to the send nothing blocks.
		if err := ctx.Err(); err != nil {
			return err
		}
		if dl, ok := ctx.Deadline(); ok {
			budget, hasBudget = time.Until(dl), true
			if budget <= 0 {
				return context.DeadlineExceeded
			}
		}
	}
	xid := c.xid.Add(1)
	cd.s, cd.xid = s, xid
	h := ReqHeader{
		XID:       xid,
		Prog:      c.Prog,
		Vers:      c.Vers,
		Proc:      cd.proc,
		OpName:    cd.op,
		ObjectKey: c.ObjectKey,
		OneWay:    cd.oneway,
	}
	enc := getEncoder()
	if metrics != nil {
		enc.EnableStats(true)
	}
	if hasBudget {
		// The deadline annotation is outermost: the server strips it
		// before the trace annotation and the protocol header. Like the
		// trace prefix its 16 bytes are a multiple of every protocol's
		// MaxAlign, so payload alignment is unchanged; deadline-less
		// calls write nothing and stay byte-identical.
		writeDeadline(enc, budget)
	}
	if ct != nil {
		// The annotation precedes the protocol header; its 32 bytes are
		// a multiple of every protocol's MaxAlign, so payload alignment
		// is unchanged.
		writeTraceContext(enc, TraceContext{TraceID: ct.tc.TraceID, SpanID: cd.attemptID, Sampled: true})
	}
	writeRequest(c.proto, enc, &h)
	marshal(enc)
	if metrics != nil {
		metrics.Op(cd.op).ReqBytes.Add(uint64(enc.Len()))
		metrics.addEnc(enc.TakeStats())
	}

	if !cd.oneway {
		// Register before sending so a reply (or a chunk) cannot race
		// past its slot, then make sure someone is reading replies on
		// this session.
		st := cd.stream
		if st != nil {
			st.s, st.xid = s, xid
		} else {
			cd.ca = getCall()
		}
		startReader, err := s.register(xid, cd.ca, st)
		if err != nil {
			if cd.ca != nil {
				putCall(cd.ca)
				cd.ca = nil
			}
			putEncoder(enc)
			return err
		}
		if cd.ca != nil && metrics != nil {
			metrics.InFlight.Add(1)
		}
		if startReader {
			go c.readReplies(s)
		}
	}

	var ls lazySender
	if cd.oneway {
		ls, _ = s.conn.(lazySender)
	}
	if ls != nil {
		// Oneway-aware batching: nothing waits on this message, so a
		// coalescing conn may hold it for company instead of cutting a
		// linger short (see BatchConn.SendLazy). Bytes flattens any
		// alias segments — a lazily held message must not reference
		// caller memory.
		err = ls.SendLazy(enc.Bytes())
	} else {
		// Vectored when the stub aliased payload segments and the
		// transport can scatter/gather; the plain contiguous send
		// otherwise.
		err = sendEncoded(s.conn, enc)
	}
	putEncoder(enc)
	if err != nil {
		// ErrClosed is a deterministic whole-message refusal: the
		// transport never took the frame, so even a non-idempotent call
		// is safe to re-send on a fresh connection. Any other send
		// error may have left a prefix on the wire.
		cd.sent = !errors.Is(err, ErrClosed)
		cd.unregister()
		if c.closed.Load() {
			return ErrClosed
		}
		return fmt.Errorf("rt: send: %w", err)
	}
	cd.sent = true
	return nil
}

// unregister withdraws a failed send's registration: the stream from
// the stream table, or the reply slot from the in-flight table.
func (cd *callDesc) unregister() {
	s, ca := cd.s, cd.ca
	if cd.stream != nil {
		s.unregisterStream(cd.xid)
	}
	if ca == nil {
		return
	}
	if !s.forget(cd.xid) {
		// The reader (or a drain) delivered concurrently: consume the
		// signal so the pooled call is clean.
		<-ca.done
		if ca.dec != nil {
			putDecoder(ca.dec)
		}
	}
	putCall(ca)
	cd.ca = nil
	if cd.metrics != nil {
		cd.metrics.InFlight.Add(-1)
	}
}

// await is the collect half of one attempt: wait for the reply if begin
// left one owed, then close the attempt span begin opened. It must be
// entered exactly once per begin, with begin's error — it consumes the
// slot.
func (cd *callDesc) await(err error) (*Decoder, error) {
	var d *Decoder
	if err == nil && cd.ca != nil {
		d, err = cd.wait()
	}
	if ct := cd.ct; ct != nil {
		sp := &Span{
			Trace: ct.tc.TraceID, ID: cd.attemptID, Parent: ct.tc.SpanID,
			Kind: SpanAttempt, Op: cd.op, XID: cd.xid, Sess: ct.shard,
			Start: cd.attemptBegin, Dur: time.Since(cd.attemptBegin), Sampled: true,
		}
		if err != nil {
			sp.Err = err.Error()
		}
		ct.tr.record(sp)
	}
	return d, err
}

// wait blocks until the reader delivers the matched reply (or the drain
// error) into the registered slot. The wait is bounded by the client
// Timeout and the ctx deadline, whichever is sooner, and interrupted
// immediately by ctx cancellation; an abandoned call sends a
// best-effort cancel frame so the server can release the in-flight
// work.
func (cd *callDesc) wait() (*Decoder, error) {
	ctx, s, ca, xid := cd.ctx, cd.s, cd.ca, cd.xid
	var ctxDone <-chan struct{}
	timeout := cd.c.Timeout
	// abandonErr is what an elapsed timer means: ErrTimeout for the
	// client's own Timeout, context.DeadlineExceeded when the ctx
	// deadline is the tighter bound.
	abandonErr := error(ErrTimeout)
	if ctx != nil {
		ctxDone = ctx.Done()
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); timeout <= 0 || rem < timeout {
				if rem <= 0 {
					rem = 1
				}
				timeout, abandonErr = rem, context.DeadlineExceeded
			}
		}
	}
	if timeout > 0 || ctxDone != nil {
		var timerC <-chan time.Time
		var timer *time.Timer
		if timeout > 0 {
			timer = time.NewTimer(timeout)
			timerC = timer.C
		}
		select {
		case <-ca.done:
			if timer != nil {
				timer.Stop()
			}
		case <-timerC:
			if s.forget(xid) {
				// The reply had not arrived: retire the slot. A late
				// reply finds the XID in the retired window and is
				// dropped.
				return nil, cd.abandon(abandonErr)
			}
			// Delivery raced the deadline; take the reply.
			<-ca.done
		case <-ctxDone:
			if timer != nil {
				timer.Stop()
			}
			if s.forget(xid) {
				return nil, cd.abandon(ctx.Err())
			}
			<-ca.done
		}
	} else {
		<-ca.done
	}
	metrics := cd.metrics
	if metrics != nil {
		metrics.InFlight.Add(-1)
	}
	d, derr := ca.dec, ca.err
	putCall(ca)
	cd.ca = nil
	if derr != nil {
		return nil, derr
	}
	if metrics != nil {
		// Drain the header-read checks now; the unmarshal-side checks
		// drain when the stub releases the decoder (d.sink).
		metrics.addDec(d.TakeStats())
	}
	return d, nil
}

// abandon releases a forgotten call slot and tells the server —
// best-effort — that nobody is waiting anymore, so it can shed the
// work if still queued or cancel the handler's context if running. The
// late reply, if it ever arrives, finds the XID retired and is dropped.
func (cd *callDesc) abandon(err error) error {
	putCall(cd.ca)
	cd.ca = nil
	if cd.metrics != nil {
		cd.metrics.InFlight.Add(-1)
		cd.metrics.CancelsSent.Add(1)
	}
	sendStreamCtl(cd.s.conn, frameCallCancel, cd.xid, 0)
	return err
}

// sleepCtx sleeps for d unless ctx is done first, reporting whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// readReplies is a session's dedicated reply reader: it owns the
// receive side of the connection, matches each reply to its in-flight
// call by XID, and hands the positioned decoder over. It exits — after
// draining every pending call with the terminal error — when the
// connection fails, the client closes, or the stream desynchronizes.
// The session it drains is left poisoned; with Redial configured the
// next call swaps in a fresh session (and a fresh reader).
func (c *Client) readReplies(s *session) {
	metrics := c.Metrics
	for {
		// The lease on the frame's receive buffer travels with it: a
		// decoder takes it over (its Release recycles the buffer, or pins
		// it if the stub aliased views out of it), or it is released
		// here when the frame dies first.
		msg, lease, err := RecvLease(s.conn)
		if err != nil {
			if c.closed.Load() {
				s.fail(ErrClosed)
			} else {
				c.poison(s, fmt.Errorf("rt: recv: %w", err))
			}
			return
		}
		if kind, sxid, arg, payload, ok := SplitStream(msg); ok {
			if kind == frameGoAway {
				// Lameduck drain announcement: in-flight calls still
				// complete, but Healthy turns false so pools migrate
				// new traffic before the server closes the socket.
				if s.markDraining() && metrics != nil {
					metrics.GoAways.Add(1)
				}
				_ = arg // drain-deadline hint; advisory
				lease.Release()
				continue
			}
			// A stream frame (chunk, end, err): structurally tagged, so
			// it routes around the reply parser entirely (stream.go).
			c.streamFrame(s, kind, sxid, arg, payload, lease)
			continue
		}
		d := getDecoder()
		if metrics != nil {
			d.EnableStats(true)
			d.sink = metrics
		}
		d.resetLease(msg, lease)
		rh, err := c.proto.ReadReply(d)
		if err != nil {
			// The reply header did not parse: nothing identifies the
			// caller and the stream position is suspect. Poison.
			putDecoder(d)
			c.poison(s, fmt.Errorf("rt: reply header: %w", err))
			return
		}

		s.mu.Lock()
		ca, ok := s.pending[rh.XID]
		if ok {
			delete(s.pending, rh.XID)
			// Retire delivered XIDs too: a retransmitting link can
			// duplicate a reply, and the duplicate must not be taken
			// for desynchronization.
			s.retired.add(rh.XID)
			s.mu.Unlock()
			switch rh.Status {
			case ReplyOK:
				// Ownership handoff, not retention: the reader passes
				// the decoder to the pending call slot; the stub that
				// receives it releases it.
				ca.dec = d //lint:allow poolescape
			case ReplyOverloaded:
				// Admission control shed the call before dispatch: the
				// server provably did not execute it, so it is safe to
				// retry even when non-idempotent.
				putDecoder(d)
				ca.err = ErrOverloaded
			case ReplyExpired:
				// The propagated deadline passed before dispatch: the
				// handler did not run, and the budget is spent.
				putDecoder(d)
				ca.err = ErrExpired
			default:
				putDecoder(d)
				ca.err = ErrSystem
			}
			ca.done <- struct{}{}
			continue
		}
		if st, sok := s.streams[rh.XID]; sok {
			// A normal reply addressed to a stream: the server refused
			// the request before streaming began (admission shed,
			// malformed arguments, unknown operation). Terminal.
			delete(s.streams, rh.XID)
			s.retired.add(rh.XID)
			s.mu.Unlock()
			putDecoder(d)
			switch rh.Status {
			case ReplyOverloaded:
				st.terminate(ErrOverloaded)
			case ReplyExpired:
				st.terminate(ErrExpired)
			default:
				st.terminate(fmt.Errorf("rt: stream: %w", ErrSystem))
			}
			continue
		}
		if s.retired.has(rh.XID) {
			// A late or duplicated reply for a completed or timed-out
			// call: benign, drop it.
			s.mu.Unlock()
			putDecoder(d)
			if metrics != nil {
				metrics.StaleReplies.Add(1)
			}
			continue
		}
		s.mu.Unlock()
		// An XID this client never issued: the connection is
		// desynchronized.
		putDecoder(d)
		if metrics != nil {
			metrics.BadXIDs.Add(1)
		}
		c.poison(s, fmt.Errorf("%w: reply xid %d", ErrBadXID, rh.XID))
		return
	}
}

// poison tears a session down after a connection failure — a receive
// error, an unparseable reply header, or a desynchronized stream,
// whether noticed during normal operation, poison-drain, or a pool
// failover. The teardown is reported first — a ConnErrors count and,
// with a Tracer attached, an error span carrying the pool session
// index — so a caller woken by the drain already finds the report.
// Deliberate Close teardowns do not come through here (they carry no
// diagnostic signal).
func (c *Client) poison(s *session, err error) {
	if metrics := c.Metrics; metrics != nil {
		metrics.ConnErrors.Add(1)
	}
	if tr := c.Tracer; tr != nil {
		recordErrorSpan(tr, SpanConn, "conn-error", c.Shard, time.Now(), err)
	}
	s.fail(err)
}
