package rt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the one call pipeline (begin → await → settle → observe):
// every entry point drives the same stages over the same descriptor, so
// the same operation must classify, count and trace identically no
// matter which surface issued it.

// paritySurface is one entry point into the call pipeline.
type paritySurface int

const (
	viaSync paritySurface = iota
	viaAsync
	viaPool
	viaStream // stream open; only meaningful where the open itself fails
)

func (v paritySurface) String() string {
	return [...]string{"sync", "async", "pool", "stream"}[v]
}

// overloadFirst fills the server's admission capacity while the first
// request is on its way and frees it before the second, so exactly the
// first attempt is shed — decided at Send, ahead of the server ever
// seeing the frame, not by timing.
type overloadFirst struct {
	Conn
	adm   *Admission
	sends atomic.Int32
}

func (o *overloadFirst) Send(msg []byte) error {
	if o.sends.Add(1) == 1 {
		o.adm.load.Store(int64(o.adm.MaxLoad))
	} else {
		o.adm.load.Store(0)
	}
	return o.Conn.Send(msg)
}

// refuseConn refuses every message whole, deterministically, the way a
// closed transport does.
type refuseConn struct{ Conn }

func (refuseConn) Send([]byte) error { return ErrClosed }

// parityRig is one server plus one client surface, fresh per case so
// metric values are deltas from zero. The Tracer is shared by both ends
// and samples everything.
type parityRig struct {
	tr   *Tracer
	cm   *Metrics
	rec  *recordingConn
	call func(proc uint32, op string, idem bool, marshal func(*Encoder)) error
	// shut closes the client side and waits for the server to finish, so
	// every span of the case has been recorded.
	shut func()
}

type parityCase struct {
	name        string
	proc        uint32
	op          string
	retry       bool // attach a RetryPolicy (classification + re-attempts)
	overloadOne bool // shed the first attempt by admission control
	refuseSend  bool // the transport refuses every request
	surfaces    []paritySurface

	wantErr        error // nil: success
	wantClass      error // ErrRetryable / ErrNotRetryable / nil: unclassified
	calls, errors  uint64
	retries        uint64
	wantShape      string
	wantRepBytesGT bool
}

func newParityRig(t *testing.T, pc *parityCase, via paritySurface, seed uint64) *parityRig {
	t.Helper()
	r := &parityRig{tr: &Tracer{SampleRate: 1, Seed: seed}, cm: NewMetrics()}
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Tracer = r.tr
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		if h.Proc == 4 {
			// The request arrived and ran; the connection dies before
			// any reply: sent-then-failed.
			h.OpName = "drop"
			serverEnd.Close()
			return errors.New("connection dropped mid-call")
		}
		return echoDispatch(h, d, e)
	})
	conn := clientEnd
	if pc.overloadOne {
		s.Admission = &Admission{MaxLoad: 1}
		conn = &overloadFirst{Conn: conn, adm: s.Admission}
	}
	if pc.refuseSend {
		conn = refuseConn{conn}
	}
	r.rec = &recordingConn{Conn: conn}
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()

	var retry *RetryPolicy
	if pc.retry {
		retry = &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, Seed: 1}
	}
	release := func(d *Decoder, err error) error {
		if d != nil {
			d.Release()
		}
		return err
	}
	if via == viaPool {
		p, err := NewClientPool(PoolConfig{
			Size: 1, Dial: func(int) (Conn, error) { return r.rec, nil },
			Proto: ONC{}, Prog: 7, Vers: 1, Retry: retry, Metrics: r.cm, Tracer: r.tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.call = func(proc uint32, op string, idem bool, marshal func(*Encoder)) error {
			return release(p.CallIdem(proc, op, false, idem, marshal))
		}
		r.shut = func() { p.Close(); clientEnd.Close(); <-done }
		return r
	}
	c := newEchoClient(r.rec)
	c.Metrics, c.Tracer, c.Retry = r.cm, r.tr, retry
	switch via {
	case viaSync:
		r.call = func(proc uint32, op string, idem bool, marshal func(*Encoder)) error {
			return release(c.CallIdem(proc, op, false, idem, marshal))
		}
	case viaAsync:
		r.call = func(proc uint32, op string, idem bool, marshal func(*Encoder)) error {
			return release(c.CallAsync(proc, op, idem, marshal).Wait())
		}
	case viaStream:
		r.call = func(proc uint32, op string, _ bool, marshal func(*Encoder)) error {
			st, err := c.CallStream(proc, op, 4, marshal)
			if st != nil {
				st.Cancel()
			}
			return err
		}
	}
	r.shut = func() { c.Close(); clientEnd.Close(); <-done }
	return r
}

// spanShape renders the span tree under the case's one client-call span
// — "call[attempt>dispatch ...]", "!" marking a span that carries an
// error, a refusal's cause appended to its dispatch — after checking
// that each attempt span's XID is the one its request frame carried.
func spanShape(t *testing.T, spans []*Span, frames [][]byte) string {
	t.Helper()
	mark := func(name string, sp *Span) string {
		if sp.Err != "" {
			name += "!"
		}
		return name
	}
	var call *Span
	for _, sp := range spans {
		if sp.Kind == SpanClientCall {
			if call != nil {
				t.Fatalf("two call spans: %+v and %+v", call, sp)
			}
			call = sp
		}
	}
	if call == nil {
		t.Fatal("no call span")
	}
	var attempts []*Span
	for _, sp := range spans {
		if sp.Kind == SpanAttempt && sp.Parent == call.ID {
			attempts = append(attempts, sp)
		}
	}
	sort.Slice(attempts, func(i, j int) bool { return attempts[i].Start.Before(attempts[j].Start) })
	var wire []uint32
	for _, f := range frames {
		if _, _, _, _, ctl := SplitStream(f); ctl {
			continue
		}
		_, f, _ = SplitDeadline(f)
		_, f, _ = SplitTrace(f)
		wire = append(wire, beU32(f)) // the ONC XID leads the header
	}
	if len(wire) != len(attempts) {
		t.Fatalf("%d request frames for %d attempt spans", len(wire), len(attempts))
	}
	parts := make([]string, len(attempts))
	for i, at := range attempts {
		if at.XID != wire[i] {
			t.Errorf("attempt %d span xid %d, wire xid %d", i, at.XID, wire[i])
		}
		parts[i] = mark("attempt", at)
		for _, sp := range spans {
			if sp.Kind == SpanServerDispatch && sp.Parent == at.ID {
				parts[i] += ">" + mark("dispatch", sp)
				if sp.XID != at.XID {
					t.Errorf("dispatch span xid %d under attempt xid %d", sp.XID, at.XID)
				}
				for _, ev := range sp.Events {
					parts[i] += ":" + ev.Cause
				}
			}
		}
	}
	return mark("call", call) + "[" + strings.Join(parts, " ") + "]"
}

func TestSurfaceParity(t *testing.T) {
	calls := []paritySurface{viaSync, viaAsync, viaPool}
	cases := []parityCase{
		{name: "success", proc: 1, op: "double", retry: true, surfaces: calls,
			calls: 1, wantRepBytesGT: true,
			wantShape: "call[attempt>dispatch]"},
		{name: "server fault", proc: 2, op: "fail", retry: true, surfaces: calls,
			wantErr: ErrSystem, calls: 1, errors: 1,
			wantShape: "call![attempt!>dispatch!]"},
		{name: "overload then success", proc: 1, op: "double", retry: true, overloadOne: true, surfaces: calls,
			calls: 1, retries: 1, wantRepBytesGT: true,
			wantShape: "call[attempt!>dispatch!:admission-reject attempt>dispatch]"},
		{name: "non-idempotent sent then failed", proc: 4, op: "drop", retry: true, surfaces: calls,
			wantErr: ErrNotRetryable, wantClass: ErrNotRetryable, calls: 1, errors: 1,
			wantShape: "call![attempt!>dispatch!]"},
		// The open of a stream is an attempt like any other: a refused
		// send must count and trace exactly as it does for a call.
		{name: "send refused", proc: 1, op: "double", refuseSend: true,
			surfaces: []paritySurface{viaSync, viaAsync, viaPool, viaStream},
			wantErr:  ErrClosed, calls: 1, errors: 1,
			wantShape: "call![attempt!]"},
	}
	for ci := range cases {
		pc := &cases[ci]
		t.Run(pc.name, func(t *testing.T) {
			var refReq, refRep uint64
			for i, via := range pc.surfaces {
				r := newParityRig(t, pc, via, uint64(100+ci))
				err := r.call(pc.proc, pc.op, false, func(e *Encoder) { e.PutU32BEC(21) })
				r.shut()

				if pc.wantErr == nil && err != nil || pc.wantErr != nil && !errors.Is(err, pc.wantErr) {
					t.Errorf("%v: err = %v, want %v", via, err, pc.wantErr)
				}
				for _, class := range []error{ErrRetryable, ErrNotRetryable} {
					if got, want := errors.Is(err, class), pc.wantClass == class; got != want {
						t.Errorf("%v: errors.Is(err, %v) = %v, want %v (err: %v)", via, class, got, want, err)
					}
				}
				op := r.cm.Op(pc.op)
				got := fmt.Sprintf("calls=%d errors=%d retries=%d", op.Calls.Load(), op.Errors.Load(), r.cm.Retries.Load())
				want := fmt.Sprintf("calls=%d errors=%d retries=%d", pc.calls, pc.errors, pc.retries)
				if got != want {
					t.Errorf("%v: %s, want %s", via, got, want)
				}
				req, rep := op.ReqBytes.Load(), op.RepBytes.Load()
				if i == 0 {
					refReq, refRep = req, rep
					if req == 0 || (rep > 0) != pc.wantRepBytesGT {
						t.Errorf("%v: req %d B, rep %d B", via, req, rep)
					}
				} else if req != refReq || rep != refRep {
					t.Errorf("%v: req/rep bytes %d/%d, %v had %d/%d", via, req, rep, pc.surfaces[0], refReq, refRep)
				}
				if shape := spanShape(t, r.tr.Spans(), r.rec.take()); shape != pc.wantShape {
					t.Errorf("%v: span tree %s, want %s", via, shape, pc.wantShape)
				}
			}
		})
	}
}

// TestCtxExpiresDuringRedial: acquiring the session may block in Redial,
// so the ctx check and the wire budget must be taken after it. A call
// whose deadline passes while the dial is in progress fails unsent — no
// frame, stale-budgeted or otherwise, reaches the fresh connection —
// through every entry point that shares begin.
func TestCtxExpiresDuringRedial(t *testing.T) {
	marshal := func(e *Encoder) { e.PutU32BEC(21) }
	surfaces := []struct {
		name string
		call func(c *Client, ctx context.Context) error
	}{
		{"sync", func(c *Client, ctx context.Context) error {
			_, err := c.CallCtx(ctx, 1, "double", false, marshal)
			return err
		}},
		{"async", func(c *Client, ctx context.Context) error {
			_, err := c.CallAsyncCtx(ctx, 1, "double", false, marshal).Wait()
			return err
		}},
		{"stream open", func(c *Client, ctx context.Context) error {
			_, err := c.CallStreamCtx(ctx, 5, "count", 4, marshal)
			return err
		}},
	}
	for _, sf := range surfaces {
		t.Run(sf.name, func(t *testing.T) {
			dead, _ := Pipe()
			c := newEchoClient(dead)
			c.sess.fail(errors.New("poisoned")) // the next call must redial
			rec := &recordingConn{Conn: startEchoServer(t, 1)}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			c.Redial = func() (Conn, error) {
				<-ctx.Done() // the dial outlives the caller's budget
				return rec, nil
			}
			defer c.Close()

			if err := sf.call(c, ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want context.DeadlineExceeded", err)
			}
			if frames := rec.take(); len(frames) != 0 {
				t.Errorf("%d frames went out on the redialed connection after the deadline, want 0", len(frames))
			}
		})
	}
}

// TestStubClosureStaysOnStack pins the reason marshal is a parameter of
// the pipeline and not a field of the descriptor: a generated stub's
// marshal closure captures the call's arguments and is built per call,
// and the sync path must leave it on the stub's stack. A closure built
// per call may cost no allocation more than one hoisted out of the loop.
func TestStubClosureStaysOnStack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	c := newEchoClient(startEchoServer(t, 1))
	call := func(marshal func(*Encoder)) {
		d, err := c.CallIdem(1, "double", false, true, marshal)
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
	}
	hoisted := func(e *Encoder) { e.PutU32BEC(4) }
	base := testing.AllocsPerRun(200, func() { call(hoisted) })
	arg := uint32(0)
	perCall := testing.AllocsPerRun(200, func() {
		arg++
		v := arg
		call(func(e *Encoder) { e.PutU32BEC(v) })
	})
	if perCall > base {
		t.Errorf("a per-call marshal closure costs %.0f allocs/op, a hoisted one %.0f: the closure escaped", perCall, base)
	}
}
