// Call-lifecycle robustness: server-side cancellation and lameduck
// drain.
//
// The client half lives in client.go (deadline annotation emission,
// ctx-aware waits, cancel frames); this file holds the server half:
// the per-connection registry that turns client cancel frames into
// handler context cancellation and pre-dispatch shedding, and
// Server.Drain — the GOAWAY-announced lameduck shutdown that lets a
// fleet restart servers one at a time without losing calls.
package rt

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDraining poisons the stream registry when a drain deadline passes:
// credit-starved StreamSenders unblock with it (wrapped in
// ErrStreamBroken) instead of hanging until their own timeouts.
var ErrDraining = errors.New("rt: server draining")

// connCalls is one served connection's in-flight call registry, shared
// between the decode loop (which applies client cancel frames) and the
// workers (which check for cancellation before dispatch and register
// handler contexts during it). It is the server-side mirror of the
// client's pending table: the canceled window uses the same bounded
// ring the client's retired window uses, so a burst of cancels cannot
// grow state without bound.
type connCalls struct {
	mu       sync.Mutex
	canceled retiredRing
	active   map[uint32]context.CancelFunc
	// killed marks the drain deadline passed: every queued request is
	// shed (ReplyOverloaded — failover-safe, nothing executed) and no
	// new handler context registers.
	killed bool
}

func newConnCalls() *connCalls {
	return &connCalls{active: make(map[uint32]context.CancelFunc)}
}

// cancel marks xid abandoned by its client and cancels the handler
// context if one is registered (the handler is mid-dispatch). It
// reports whether a running handler was released; a cancel for a
// still-queued request is remembered and shed by the worker instead.
func (cc *connCalls) cancel(xid uint32) bool {
	cc.mu.Lock()
	cc.canceled.add(xid)
	fn := cc.active[xid]
	delete(cc.active, xid)
	cc.mu.Unlock()
	if fn != nil {
		fn()
		return true
	}
	return false
}

// register attaches a dispatching handler's cancel function, reporting
// false when the call was already canceled or the connection killed —
// the caller must then cancel the fresh context immediately.
func (cc *connCalls) register(xid uint32, fn context.CancelFunc) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.killed || cc.canceled.has(xid) {
		return false
	}
	cc.active[xid] = fn
	return true
}

// state reports, for a job about to be dispatched, whether its client
// canceled it and whether the drain deadline killed the connection's
// remaining queue.
func (cc *connCalls) state(xid uint32) (canceled, killed bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.canceled.has(xid), cc.killed
}

// finish detaches the handler context registered for xid, releasing
// its deadline timer. The worker calls it after every dispatch; a
// handler that never called (*ReqHeader).Context registered nothing
// and this is a map miss.
func (cc *connCalls) finish(xid uint32) {
	cc.mu.Lock()
	fn := cc.active[xid]
	delete(cc.active, xid)
	cc.mu.Unlock()
	if fn != nil {
		// The handler has returned; canceling now only frees the
		// context's resources.
		fn()
	}
}

// kill sheds everything still queued and cancels every registered
// handler context: the drain deadline passed and the connection is
// about to close.
func (cc *connCalls) kill() {
	cc.mu.Lock()
	cc.killed = true
	fns := make([]context.CancelFunc, 0, len(cc.active))
	for xid, fn := range cc.active {
		delete(cc.active, xid)
		fns = append(fns, fn)
	}
	cc.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// cancelAll marks every live stream ledger canceled and wakes blocked
// senders: a credit-starved StreamSender unblocks with
// ErrStreamCanceled instead of waiting out its own timeout. Used by
// the drain deadline (the consumer is being migrated, not served).
func (cs *connStreams) cancelAll() {
	cs.mu.Lock()
	for _, st := range cs.m {
		st.canceled = true
		st.cond.Broadcast()
	}
	cs.mu.Unlock()
}

// servingConn is one served connection's record, shared by ServeConn's
// decode loop, its workers, and Server.Drain: the transport (replies,
// the GOAWAY frame, the final close), the stream and call registries
// (credit, cancellation, straggler teardown), the decoded-request queue
// feeding the workers, the duplicate window and first-write-failure
// latch, the server's Metrics as of accept, and the in-flight gauge the
// drain loop watches.
type servingConn struct {
	conn    Conn
	cs      *connStreams
	calls   *connCalls
	jobs    chan srvJob
	dups    *dupCache // nil without Server.DupWindow
	fail    connFail
	metrics *Metrics
	// inflight counts requests admitted to the worker queue and not
	// yet finished (dispatch done, reply sent or shed).
	inflight atomic.Int64
}

// Draining reports whether Drain has begun. New requests on any
// connection are shed with ReplyOverloaded (failover-safe) once it
// returns true.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain performs a lameduck shutdown: it announces GOAWAY on every
// served connection (clients mark the session draining, pools migrate
// new traffic to healthy sessions), sheds requests that arrive
// afterwards with ReplyOverloaded (retryable and failover-safe — the
// operation provably did not execute), waits for in-flight calls and
// streams to settle, and then closes the connections. If the work does
// not settle within timeout, stragglers are canceled: queued requests
// are shed, registered handler contexts are canceled, and
// credit-starved StreamSenders are unblocked with ErrStreamCanceled
// instead of hanging until their own timeouts.
//
// Drain returns true when everything settled inside the deadline — a
// loss-free drain: every accepted call was answered, every shed call
// is safely retryable elsewhere. It returns false when stragglers had
// to be canceled. Draining is terminal for the Server: bring up a
// fresh Server to serve again (a rolling restart replaces the
// process's server anyway).
func (s *Server) Drain(timeout time.Duration) bool {
	s.draining.Store(true)
	s.connMu.Lock()
	conns := make([]*servingConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.connMu.Unlock()

	hint := uint32(timeout.Milliseconds())
	for _, sc := range conns {
		// Best-effort: a connection that cannot take the frame is dying
		// already, and its client classifies the teardown as usual.
		sendStreamCtl(sc.conn, frameGoAway, 0, hint)
	}

	deadline := time.Now().Add(timeout)
	completed := waitSettled(conns, deadline)
	if !completed {
		// The deadline passed with work still in flight: cancel the
		// stragglers so workers finish promptly, then give them a
		// bounded moment to unwind before the sockets close.
		for _, sc := range conns {
			sc.calls.kill()
			sc.cs.cancelAll()
			sc.cs.fail(ErrDraining)
		}
		grace := timeout / 4
		if grace < 10*time.Millisecond {
			grace = 10 * time.Millisecond
		}
		waitSettled(conns, time.Now().Add(grace))
	}
	for _, sc := range conns {
		sc.conn.Close()
	}
	return completed
}

// waitSettled polls until every connection's in-flight gauge reaches
// zero or the deadline passes.
func waitSettled(conns []*servingConn, deadline time.Time) bool {
	for {
		settled := true
		for _, sc := range conns {
			if sc.inflight.Load() > 0 {
				settled = false
				break
			}
		}
		if settled {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}
