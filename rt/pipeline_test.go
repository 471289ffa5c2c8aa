package rt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the concurrent call engine: XID multiplexing, pipelined
// dispatch, pooled buffer ownership, deadlines, and teardown semantics.
// Run with -race; most of these exist to give the detector something to
// chew on.

// startEchoServer serves echoDispatch on one end of a transport with the
// given worker count and returns the client end.
func startEchoServer(t *testing.T, workers int) Conn {
	t.Helper()
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = workers
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })
	return clientEnd
}

func newEchoClient(conn Conn) *Client {
	c := NewClient(conn, ONC{})
	c.Prog, c.Vers = 7, 1
	return c
}

// doubleCall issues one double() round trip and verifies the reply,
// releasing the pooled decoder like a generated stub would.
func doubleCall(t *testing.T, c *Client, v uint32) {
	t.Helper()
	d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(v) })
	if err != nil {
		t.Fatalf("double(%d): %v", v, err)
	}
	if !d.Ensure(4) {
		t.Fatalf("double(%d): %v", v, d.Err())
	}
	if got := d.U32BE(); got != 2*v {
		t.Errorf("double(%d) = %d (reply cross-matched?)", v, got)
	}
	d.Release()
}

// TestCallAfterClose guards the closed-state contract: Call on a closed
// client reports ErrClosed, not a transport error.
func TestCallAfterClose(t *testing.T) {
	conn := startEchoServer(t, 1)
	c := newEchoClient(conn)
	doubleCall(t, c, 7)
	c.Close()
	if _, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(1) }); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after Close = %v, want ErrClosed", err)
	}
	// Idempotent close.
	if err := c.Close(); err != nil && !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v", err)
	}
}

// TestCloseMidFlight closes the client while calls are blocked waiting
// for replies: every pending call must drain with ErrClosed.
func TestCloseMidFlight(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	c := newEchoClient(clientEnd)

	// The peer swallows requests without replying.
	swallowed := make(chan struct{}, 8)
	go func() {
		for {
			if _, err := serverEnd.Recv(); err != nil {
				return
			}
			swallowed <- struct{}{}
		}
	}()

	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(1) })
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		<-swallowed // all four requests are in flight
	}
	c.Close()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("mid-flight call drained with %v, want ErrClosed", err)
		}
	}
}

// TestPeerFailureDrain kills the connection from the server side while
// calls are in flight: the reply reader must drain every pending call
// with the terminal error instead of leaving goroutines stuck.
func TestPeerFailureDrain(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	c := newEchoClient(clientEnd)

	swallowed := make(chan struct{}, 8)
	go func() {
		for {
			if _, err := serverEnd.Recv(); err != nil {
				return
			}
			swallowed <- struct{}{}
		}
	}()

	const n = 3
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(1) })
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		<-swallowed
	}
	serverEnd.Close() // peer dies
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("pending call drained with %v, want wrapped ErrClosed", err)
		}
	}
	// The client is poisoned: later calls fail fast.
	if _, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(1) }); err == nil {
		t.Error("Call on poisoned client succeeded")
	}
}

// TestPipeDoubleClose is a regression test: closing both ends of a Pipe
// must not panic (the teardown state is shared, the Once must be too).
func TestPipeDoubleClose(t *testing.T) {
	a, b := Pipe()
	a.Close()
	b.Close()
	a.Close()
}

// TestConcurrentCallsTransports hammers one multiplexed client from
// several goroutines across each transport and verifies every reply
// reaches its caller (a cross-matched XID shows up as a wrong double).
func TestConcurrentCallsTransports(t *testing.T) {
	const goroutines, perG = 4, 25

	run := func(t *testing.T, conn Conn) {
		c := newEchoClient(conn)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					doubleCall(t, c, uint32(g*1000+i+1))
				}
			}(g)
		}
		wg.Wait()
	}

	t.Run("pipe", func(t *testing.T) {
		run(t, startEchoServer(t, 4))
	})

	t.Run("tcp", func(t *testing.T) {
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		s := NewServer(ONC{})
		s.Workers = 4
		s.Register(7, 1, echoDispatch)
		go s.Serve(l)
		conn, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		run(t, conn)
	})

	t.Run("udp", func(t *testing.T) {
		serverConn, addr, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { serverConn.Close() })
		s := NewServer(ONC{})
		s.Workers = 4
		s.Register(7, 1, echoDispatch)
		go s.ServeConn(serverConn)
		conn, err := DialUDP(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		run(t, conn)
	})
}

// gatedDispatch answers proc 1 ("slow") only after gate closes and
// proc 2 ("fast") immediately; proc 3 is a oneway note.
func gatedDispatch(gate chan struct{}, notes *atomic.Uint32) Dispatch {
	return func(h *ReqHeader, d *Decoder, e *Encoder) error {
		switch h.Proc {
		case 1:
			h.OpName = "slow"
			<-gate
			e.PutU32BEC(111)
			return nil
		case 2:
			h.OpName = "fast"
			e.PutU32BEC(222)
			return nil
		case 3:
			h.OpName = "note"
			h.OneWay = true
			if notes != nil {
				notes.Add(1)
			}
			return nil
		}
		return ErrNoSuchOp
	}
}

// TestOutOfOrderCompletion verifies the whole point of the pipeline: a
// cheap request issued after an expensive one completes first, and the
// expensive one's reply still reaches its caller.
func TestOutOfOrderCompletion(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	gate := make(chan struct{})
	s := NewServer(ONC{})
	s.Workers = 2
	s.Register(7, 1, gatedDispatch(gate, nil))
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	c := newEchoClient(clientEnd)
	slowDone := make(chan uint32, 1)
	go func() {
		d, err := c.Call(1, "slow", false, func(e *Encoder) {})
		if err != nil {
			slowDone <- 0
			return
		}
		d.Ensure(4)
		v := d.U32BE()
		d.Release()
		slowDone <- v
	}()

	// The fast call must complete while slow is still gated.
	d, err := c.Call(2, "fast", false, func(e *Encoder) {})
	if err != nil {
		t.Fatal(err)
	}
	d.Ensure(4)
	if got := d.U32BE(); got != 222 {
		t.Fatalf("fast reply = %d", got)
	}
	d.Release()
	select {
	case <-slowDone:
		t.Fatal("slow call completed before its gate opened")
	default:
	}

	close(gate)
	if got := <-slowDone; got != 111 {
		t.Errorf("slow reply = %d", got)
	}
}

// TestOnewayInterleaving mixes oneway notes with two-way calls on one
// pipelined connection: the oneways must all arrive, produce no replies,
// and not desynchronize the two-way reply stream.
func TestOnewayInterleaving(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	gate := make(chan struct{})
	close(gate) // slow path unused; keep it open
	var notes atomic.Uint32
	s := NewServer(ONC{})
	s.Workers = 2
	s.Register(7, 1, gatedDispatch(gate, &notes))
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	c := newEchoClient(clientEnd)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if _, err := c.Call(3, "note", true, func(e *Encoder) {}); err != nil {
			t.Fatal(err)
		}
		d, err := c.Call(2, "fast", false, func(e *Encoder) {})
		if err != nil {
			t.Fatal(err)
		}
		d.Ensure(4)
		if got := d.U32BE(); got != 222 {
			t.Fatalf("round %d: fast reply = %d", i, got)
		}
		d.Release()
	}
	// The two-way replies fence the oneways: all notes have dispatched.
	deadline := time.Now().Add(2 * time.Second)
	for notes.Load() != rounds && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := notes.Load(); got != rounds {
		t.Errorf("server saw %d oneway notes, want %d", got, rounds)
	}
}

// TestCallTimeout verifies per-call deadlines: the timed-out call
// returns ErrTimeout, its late reply is dropped (and counted) without
// poisoning the connection, and later calls still work.
func TestCallTimeout(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	gate := make(chan struct{})
	s := NewServer(ONC{})
	s.Workers = 2
	s.Register(7, 1, gatedDispatch(gate, nil))
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	c := newEchoClient(clientEnd)
	c.Metrics = NewMetrics()
	c.Timeout = 25 * time.Millisecond

	if _, err := c.Call(1, "slow", false, func(e *Encoder) {}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("gated call = %v, want ErrTimeout", err)
	}
	close(gate) // the late reply arrives now and must be dropped

	// The connection survives: a fast call succeeds within the deadline.
	d, err := c.Call(2, "fast", false, func(e *Encoder) {})
	if err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	d.Ensure(4)
	if got := d.U32BE(); got != 222 {
		t.Errorf("fast reply = %d", got)
	}
	d.Release()

	deadline := time.Now().Add(2 * time.Second)
	for c.Metrics.StaleReplies.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.Metrics.StaleReplies.Load(); got != 1 {
		t.Errorf("StaleReplies = %d, want 1", got)
	}
	if got := c.Metrics.BadXIDs.Load(); got != 0 {
		t.Errorf("BadXIDs = %d (late reply poisoned the client)", got)
	}
}
