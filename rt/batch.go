// Adaptive call batching: the coalescing writer.
//
// The paper's throughput argument is about amortization: group the
// per-datum costs (bounds checks, copies) so each is paid once per
// chunk instead of once per field. At serving scale the analogous
// per-*call* costs are the frame header, the write syscall, and the
// integrity check — BatchConn amortizes those by packing every message
// that is pending at flush time into one batch frame (see SplitBatch in
// proto.go for the envelope).
//
// The batching is adaptive by construction rather than by timer: a
// dedicated writer goroutine drains the send queue, and whatever
// accumulated while the previous frame was being transmitted travels
// together in the next one. Under light load the queue never holds more
// than one message and every message ships alone, unwrapped, with zero
// added latency; under heavy load frames grow toward the configured
// caps automatically. An optional linger deadline (MaxDelay) trades a
// bounded latency increase for larger frames at moderate load, and
// oneway messages — which nothing waits on — are "lazy": they never cut
// a linger short, riding along with whichever later frame flushes.
package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BatchConfig tunes a BatchConn. The zero value is usable: pure
// idle-coalescing with default caps and no linger.
type BatchConfig struct {
	// MaxMessages caps how many messages one frame may carry (default
	// 64, bounded by MaxBatchMessages).
	MaxMessages int
	// MaxBytes caps the payload bytes one frame may carry (default
	// 32KB). A single message larger than the cap still ships, alone.
	MaxBytes int
	// MaxDelay, when positive, lets the writer linger after the first
	// pending eager message for up to this long to accumulate a larger
	// frame. Zero (the default) flushes the moment the queue drains:
	// batching then costs no latency at all and still wins whenever the
	// transport is slower than the callers.
	MaxDelay time.Duration
	// Queue bounds the pending-message backlog (default 256); Send
	// blocks when it is full, which is the fabric's client-side
	// backpressure.
	Queue int
	// Metrics, when non-nil, receives BatchedCalls, BatchFrames, and
	// the BatchFlush* reason counters.
	Metrics *Metrics
	// Tracer, when non-nil, records a SpanBatchFlush span for every
	// multi-message frame the writer cuts, with the flush reason as a
	// cause-labeled event. Single-message (unwrapped) sends are not
	// recorded — at low load batching must stay invisible in the ring
	// too. ClientPool defaults this to the pool's Tracer.
	Tracer *Tracer
}

func (c BatchConfig) maxMessages() int {
	n := c.MaxMessages
	if n <= 0 {
		n = 64
	}
	if n > MaxBatchMessages {
		n = MaxBatchMessages
	}
	return n
}

func (c BatchConfig) maxBytes() int {
	if c.MaxBytes <= 0 {
		return 32 << 10
	}
	return c.MaxBytes
}

func (c BatchConfig) queue() int {
	if c.Queue <= 0 {
		return 256
	}
	return c.Queue
}

// lazySender is the optional conn capability behind oneway-aware
// batching: the multiplexed client routes oneway requests through
// SendLazy when its conn provides it.
type lazySender interface {
	SendLazy(msg []byte) error
}

// batchMsg is one queued message, staged in a receive-arena buffer the
// writer sends home once the frame carrying it is out; lazy marks oneway
// traffic that never cuts a linger short.
type batchMsg struct {
	stage *Lease
	lazy  bool
}

// BatchConn wraps a Conn with adaptive call batching in both
// directions: Send coalesces queued messages into batch frames, and
// Recv transparently unpacks batch frames from the peer (so two
// BatchConns can face each other, or a batching client can face a plain
// server, whose frame reader also unpacks natively).
//
// Send keeps the Conn contract — safe for concurrent use, caller may
// reuse the buffer — by copying each message into the queue (through
// recycled staging, so a steady-state Send allocates nothing). Recv
// keeps the single-reader contract. Close tears down the writer; messages
// still queued are dropped, exactly as bytes buffered in a kernel
// socket are on close.
type BatchConn struct {
	inner Conn
	cfg   BatchConfig

	sendq  chan batchMsg
	done   chan struct{}
	once   sync.Once
	closed atomic.Bool

	// sendErr latches the writer's first transport failure; later Sends
	// return it instead of silently queueing onto a dead writer.
	sendErr atomic.Value // error

	// recvq holds the not yet delivered messages of the last received
	// batch frame, a window of the reused splitter scratch parts; each
	// is delivered with one reference on recvLease, the frame's lease
	// (single-reader: no lock needed).
	recvq, parts [][]byte
	recvLease    *Lease
}

// NewBatchConn wraps inner with a coalescing writer.
func NewBatchConn(inner Conn, cfg BatchConfig) *BatchConn {
	b := &BatchConn{
		inner: inner,
		cfg:   cfg,
		sendq: make(chan batchMsg, cfg.queue()),
		done:  make(chan struct{}),
	}
	go b.writer()
	return b
}

// Send queues one message for the coalescing writer. It blocks when the
// queue is full (backpressure) and fails once the conn is closed or the
// writer has hit a transport error.
func (b *BatchConn) Send(msg []byte) error { return b.send(msg, false) }

// SendLazy queues a message nothing waits on (oneway calls): it flushes
// with the caps and deadline like any other, but never cuts a linger
// short on queue drain. The multiplexed client uses it automatically
// for oneway operations when its conn is a BatchConn.
func (b *BatchConn) SendLazy(msg []byte) error { return b.send(msg, true) }

func (b *BatchConn) send(msg []byte, lazy bool) error {
	if b.closed.Load() {
		return ErrClosed
	}
	if e := b.sendErr.Load(); e != nil {
		return e.(error)
	}
	// The caller may reuse its buffer after Send returns: copy.
	stage := getLease(len(msg))
	copy(stage.buf, msg)
	select {
	case b.sendq <- batchMsg{stage, lazy}:
		return nil
	case <-b.done:
		stage.Release()
		return ErrClosed
	}
}

// Recv returns the next message, unpacking batch frames from the peer.
func (b *BatchConn) Recv() ([]byte, error) { return recvEscaped(b) }

// RecvLease is Recv forwarding the inner conn's lease (see
// LeaseReceiver). The parts of a batch frame share the frame's buffer:
// the lease is retained once per part, so the frame recycles when the
// last part's reader releases it.
func (b *BatchConn) RecvLease() ([]byte, *Lease, error) {
	if len(b.recvq) == 0 {
		msg, lease, err := RecvLease(b.inner)
		if err != nil {
			return nil, nil, err
		}
		var ok bool
		if b.parts, ok = appendBatchParts(b.parts, msg); !ok {
			return msg, lease, nil
		}
		if m := b.cfg.Metrics; m != nil {
			m.BatchedCalls.Add(uint64(len(b.parts)))
		}
		lease.retain(len(b.parts) - 1)
		b.recvq, b.recvLease = b.parts, lease
	}
	m := b.recvq[0]
	b.recvq[0] = nil
	b.recvq = b.recvq[1:]
	return m, b.recvLease, nil
}

// Close stops the writer and closes the wrapped conn. Idempotent.
func (b *BatchConn) Close() error {
	b.closed.Store(true)
	b.once.Do(func() { close(b.done) })
	return b.inner.Close()
}

// flush reasons, indexing the metrics counters.
const (
	flushSize = iota
	flushIdle
	flushDeadline
	flushClose
)

// writer is the coalescing loop: block for the first pending message,
// drain whatever else is queued (lingering up to MaxDelay when
// configured and only lazy traffic is pending), and emit one frame —
// unwrapped when a single message is pending, an envelope otherwise.
func (b *BatchConn) writer() {
	maxN, maxB := b.cfg.maxMessages(), b.cfg.maxBytes()
	var pending []batchMsg
	var frame []byte // reused envelope buffer
	var timer *time.Timer
	for {
		var first batchMsg
		select {
		case first = <-b.sendq:
		case <-b.done:
			return
		}
		pending = append(pending[:0], first)
		bytes := len(first.stage.buf)
		eager := !first.lazy
		reason := flushIdle

		var deadline <-chan time.Time
		if b.cfg.MaxDelay > 0 {
			if timer == nil {
				timer = time.NewTimer(b.cfg.MaxDelay)
			} else {
				timer.Reset(b.cfg.MaxDelay)
			}
			deadline = timer.C
		}
	accumulate:
		for len(pending) < maxN && bytes < maxB {
			select {
			case m := <-b.sendq:
				pending = append(pending, m)
				bytes += len(m.stage.buf)
				eager = eager || !m.lazy
			default:
				// Queue drained. With no linger, or with an eager
				// message waiting on its reply, flush now; with only
				// lazy traffic pending, keep lingering for company.
				if deadline == nil || eager {
					break accumulate
				}
				select {
				case m := <-b.sendq:
					pending = append(pending, m)
					bytes += len(m.stage.buf)
					eager = eager || !m.lazy
				case <-deadline:
					deadline = nil
					reason = flushDeadline
					break accumulate
				case <-b.done:
					b.emit(pending, frame, flushClose)
					return
				}
			}
		}
		if len(pending) >= maxN || bytes >= maxB {
			reason = flushSize
		}
		if deadline != nil && !timer.Stop() {
			<-timer.C
		}
		frame = b.emit(pending, frame, reason)
	}
}

// flushCause names a flush reason for span events.
func flushCause(reason int) string {
	switch reason {
	case flushSize:
		return "flush-size"
	case flushIdle:
		return "flush-idle"
	case flushDeadline:
		return "flush-deadline"
	}
	return "flush-close"
}

// emit records the flush, sends the pending messages as one frame and
// sends their staging buffers home. It returns the (possibly grown)
// reusable envelope buffer. The flush is counted before the send, so a
// peer that has received the frame sees it counted.
func (b *BatchConn) emit(pending []batchMsg, frame []byte, reason int) []byte {
	if m := b.cfg.Metrics; m != nil {
		switch reason {
		case flushSize:
			m.BatchFlushSize.Add(1)
		case flushIdle:
			m.BatchFlushIdle.Add(1)
		case flushDeadline:
			m.BatchFlushDeadline.Add(1)
		case flushClose:
			m.BatchFlushClose.Add(1)
		}
		if len(pending) > 1 {
			m.BatchFrames.Add(1)
			m.BatchedCalls.Add(uint64(len(pending)))
		}
	}
	var err error
	if len(pending) == 1 {
		// Single message: ship it unwrapped — at low load batching must
		// cost nothing, neither latency nor envelope bytes.
		err = b.inner.Send(pending[0].stage.buf)
	} else {
		var begin time.Time
		tracer := b.cfg.Tracer
		if tracer != nil {
			begin = time.Now()
		}
		frame = appendBatchStart(frame[:0], len(pending))
		for _, m := range pending {
			frame = appendBatch(frame, m.stage.buf)
		}
		err = b.inner.Send(frame)
		if tracer != nil {
			// Flush spans are local roots: one frame carries messages
			// from many traces, so none of their contexts fits.
			tc := tracer.localTrace()
			sp := &Span{
				Trace: tc.TraceID, ID: tc.SpanID, Kind: SpanBatchFlush,
				Op: "batch", Start: begin, Dur: time.Since(begin),
				Events: []SpanEvent{{
					Cause:  flushCause(reason),
					Detail: fmt.Sprintf("%d messages, %d bytes", len(pending), len(frame)),
				}},
			}
			if err != nil {
				sp.Err = err.Error()
			}
			tracer.record(sp)
		}
	}
	if err != nil && b.sendErr.Load() == nil {
		b.sendErr.Store(err)
	}
	for i := range pending {
		pending[i].stage.Release()
		pending[i].stage = nil
	}
	return frame
}
