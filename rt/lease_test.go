package rt

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Tests for the receive-buffer lease: the refcount itself, its trip
// through every conn wrapper, and the ledger that says every buffer
// drawn was settled exactly once.

// --- the lease ----------------------------------------------------------------

// TestLeaseLastReleaseRecycles: references taken and dropped from many
// goroutines (run with -race), and the buffer re-enters its pool on the
// last release, not before.
func TestLeaseLastReleaseRecycles(t *testing.T) {
	resetBigClass(t)
	const holders = 16
	l := getLease(arenaMid + 1) // big class: its free list can be inspected
	for i := range l.buf {
		l.buf[i] = byte(i)
	}
	l.retain(holders) // the test keeps the original reference

	var wg sync.WaitGroup
	for g := 0; g < holders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				l.Retain()
				defer l.Release()
			}
			if l.buf[g] != byte(g) {
				t.Errorf("holder %d read %#x: the buffer changed under a live reference", g, l.buf[g])
			}
			l.Release()
		}(g)
	}
	wg.Wait()
	if len(arenaBigFree) != 0 || l.refs.Load() != 1 {
		t.Fatalf("with one reference left: free list holds %d, refs = %d; want 0 and 1", len(arenaBigFree), l.refs.Load())
	}
	before := ReadZeroCopyStats()
	l.Release()
	if d := ReadZeroCopyStats().Sub(before); len(arenaBigFree) != 1 || d.ArenaPuts != 1 {
		t.Fatalf("last release: free list holds %d, puts = %d; want 1 and 1", len(arenaBigFree), d.ArenaPuts)
	}

	// A second release of a lease nobody holds is a no-op — in
	// particular it does not enter the pool twice.
	l.Release()
	l.release(true)
	if d := ReadZeroCopyStats().Sub(before); len(arenaBigFree) != 1 || d.ArenaPuts != 1 || d.ArenaPinned != 0 {
		t.Errorf("double release: free list holds %d, puts = %d, pinned = %d; want 1, 1, 0", len(arenaBigFree), d.ArenaPuts, d.ArenaPinned)
	}
	if again := getLease(arenaMid + 1); again != l {
		t.Error("the recycled lease did not come back from the free list")
	}
}

// TestLeaseEscapedPinsOnce: one holder whose views escaped pins the
// buffer for all of them — counted once, at the last release, and the
// buffer never re-enters a pool.
func TestLeaseEscapedPinsOnce(t *testing.T) {
	resetBigClass(t)
	before := ReadZeroCopyStats()
	l := getLease(arenaMid + 1)
	l.retain(2)
	l.release(false)
	l.release(true)
	if d := ReadZeroCopyStats().Sub(before); d.ArenaPinned != 0 {
		t.Fatalf("pinned = %d with a reference still out, want 0", d.ArenaPinned)
	}
	l.release(false)
	d := ReadZeroCopyStats().Sub(before)
	if d.ArenaGets != 1 || d.ArenaPinned != 1 || d.ArenaPuts != 0 || d.ArenaDropped != 0 || len(arenaBigFree) != 0 {
		t.Errorf("gets = %d, pinned = %d, puts = %d, dropped = %d, free list %d; want 1, 1, 0, 0, 0",
			d.ArenaGets, d.ArenaPinned, d.ArenaPuts, d.ArenaDropped, len(arenaBigFree))
	}
}

// TestLeaseNil: a nil lease stands for bytes the arena does not own.
func TestLeaseNil(t *testing.T) {
	var l *Lease
	l.Retain()
	l.Release()
	d := getDecoder()
	d.resetLease([]byte{0, 0, 0, 1}, nil)
	if v := d.AliasNext(4); len(v) != 4 || d.aliased {
		t.Errorf("AliasNext without a lease: %d bytes, aliased = %v; want 4, false (nothing to pin)", len(v), d.aliased)
	}
	d.Release()
}

// TestBatchPartsRecycleFrameOnce: the parts of one batch frame, decoded
// and released out of order by eight workers, send the frame home
// exactly once — when the last of them is released, and not while any
// part can still be read.
func TestBatchPartsRecycleFrameOnce(t *testing.T) {
	resetBigClass(t)
	const n = 64
	frame := appendBatchStart(nil, n)
	for i := 0; i < n; i++ {
		frame = appendBatch(frame, bytes.Repeat([]byte{byte(i)}, 1500))
	}
	l := getLease(len(frame)) // ~96 KiB: big class
	copy(l.buf, frame)
	parts, ok := appendBatchParts(nil, l.buf)
	if !ok || len(parts) != n {
		t.Fatalf("split: %d parts, ok = %v", len(parts), ok)
	}
	l.retain(n - 1)

	decs := make(chan *Decoder, n)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		d := getDecoder()
		d.resetLease(parts[i], l)
		decs <- d
	}
	close(decs)
	last := <-decs // held back: the frame must outlive the other 63
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range decs {
				want := d.buf[0]
				if !bytes.Equal(d.Next(1500), bytes.Repeat([]byte{want}, 1500)) {
					t.Errorf("part %d changed while the frame was still leased", want)
				}
				d.Release()
			}
		}()
	}
	wg.Wait()
	if len(arenaBigFree) != 0 {
		t.Fatal("the frame re-entered the pool with one part's decoder still out")
	}
	want := last.buf[0]
	if !bytes.Equal(last.Next(1500), bytes.Repeat([]byte{want}, 1500)) {
		t.Errorf("the held-back part %d changed under its lease", want)
	}
	last.Release()
	if len(arenaBigFree) != 1 {
		t.Fatalf("after the last part: free list holds %d frames, want 1", len(arenaBigFree))
	}
}

// --- the wrapper matrix ---------------------------------------------------------

type connPair struct {
	name string
	make func(t *testing.T) (client, server Conn)
}

func transportPairs() []connPair {
	return []connPair{
		{"tcp", loopbackPair},
		{"pipe", func(t *testing.T) (Conn, Conn) { return Pipe() }},
		{"udp", func(t *testing.T) (Conn, Conn) {
			server, addr, err := ListenUDP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			client, err := DialUDP(addr)
			if err != nil {
				t.Fatal(err)
			}
			return client, server
		}},
	}
}

type connWrap struct {
	name string
	wrap func(Conn) Conn
}

func quietFault(c Conn) Conn {
	f, err := NewFaultConn(c, FaultPlan{Seed: 1})
	if err != nil {
		panic(err)
	}
	return f
}

func batched(c Conn) Conn { return NewBatchConn(c, BatchConfig{}) }
func crc(c Conn) Conn     { return WrapChecksum(c) }

func connWrappers() []connWrap {
	return []connWrap{
		{"bare", func(c Conn) Conn { return c }},
		{"CRC", crc},
		{"Batch", batched},
		{"Fault", quietFault},
		{"CRC∘Batch", func(c Conn) Conn { return crc(batched(c)) }},
		{"Fault∘CRC", func(c Conn) Conn { return quietFault(crc(c)) }},
	}
}

// TestWrapperMatrix: layering a conn never changes allocation
// behaviour. On every raw transport, a released call through each
// wrapper (applied at both ends) allocates exactly what the bare
// transport's does in steady state — the lease reaches the decoder
// through every layer, and no layer's Send allocates — and every buffer
// drawn along the way goes home.
func TestWrapperMatrix(t *testing.T) {
	for _, tp := range transportPairs() {
		bare := -1.0
		for _, w := range connWrappers() {
			t.Run(tp.name+"/"+w.name, func(t *testing.T) {
				before := arenaBaseline()
				cliEnd, srvEnd := tp.make(t)
				cliEnd, srvEnd = w.wrap(cliEnd), w.wrap(srvEnd)
				s := NewServer(ONC{})
				s.Register(7, 1, echoDispatch)
				done := make(chan struct{})
				go func() { defer close(done); s.ServeConn(srvEnd) }()
				t.Cleanup(func() { cliEnd.Close(); srvEnd.Close(); <-done })
				c := newEchoClient(cliEnd)
				defer c.Close()
				marshal := func(e *Encoder) { e.PutU32BEC(21) }
				call := func() {
					d, err := c.Call(1, "double", false, marshal)
					if err != nil {
						t.Fatal(err)
					}
					if !d.Ensure(4) || d.U32BE() != 42 {
						t.Fatal("double(21) != 42")
					}
					d.Release()
				}
				for i := 0; i < 50; i++ {
					call() // warm the pools and every layer's scratch
				}
				allocs := testing.AllocsPerRun(300, call)
				// The server's worker releases the request after it sends
				// the reply: give the last one a moment.
				var d ZeroCopyStats
				for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
					d = ReadZeroCopyStats().Sub(before)
					if d.ArenaGets == d.ArenaPuts+d.ArenaDropped || time.Now().After(deadline) {
						break
					}
				}
				if d.ArenaGets == 0 || d.ArenaPinned != 0 || d.ArenaGets != d.ArenaPuts+d.ArenaDropped {
					t.Errorf("arena gets = %d, puts = %d, pinned = %d, dropped = %d: want every buffer home",
						d.ArenaGets, d.ArenaPuts, d.ArenaPinned, d.ArenaDropped)
				}
				if raceEnabled {
					return // allocation counts differ under -race
				}
				if w.name == "bare" {
					bare = allocs
				} else if allocs != bare {
					t.Errorf("%.0f allocs per call, the bare transport's is %.0f", allocs, bare)
				}
			})
		}
	}
}

// --- handler-scoped views ----------------------------------------------------

// echoViewDispatch is the shape a -zerocopy skeleton has for
// `blob echo(in blob data)` whose work function returns its argument:
// the request's bytes are aliased, the reply is marshaled by reference
// from the request buffer, and the borrow ends.
func echoViewDispatch(h *ReqHeader, d *Decoder, e *Encoder) error {
	h.OpName = "echo"
	if !d.Ensure(4) {
		return d.Err()
	}
	n, ok := d.Len(BE, 0, false, 1)
	if !ok || !d.Ensure(n) {
		return d.Err()
	}
	data := d.AliasNext(n)
	e.Grow(4)
	e.PutU32BE(uint32(len(data)))
	e.PutBytesZC(data)
	d.EndBorrow()
	return nil
}

// plainOnly hides every optional capability of a conn (vectored send,
// leased receive).
type plainOnly struct{ Conn }

// TestEchoedViewIsByteCorrect: a handler that returns its aliased
// argument is answered from the request buffer itself, which must stay
// leased until the reply is on the wire — vectored or flattened, with
// the reply cache copying it too. Under -race a buffer that went home
// early is poisoned, so a premature recycle shows as 0xDB bytes.
func TestEchoedViewIsByteCorrect(t *testing.T) {
	for _, flatten := range []bool{false, true} {
		t.Run(fmt.Sprintf("flatten=%v", flatten), func(t *testing.T) {
			before := ReadZeroCopyStats()
			l, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			s := NewServer(ONC{})
			s.Workers = 4
			s.DupWindow = 64
			s.Register(7, 1, echoViewDispatch)
			go func() {
				for {
					conn, err := l.Accept()
					if err != nil {
						return
					}
					if flatten {
						// Keep the lease, lose writev.
						conn = quietFault(conn)
					}
					go func() { defer conn.Close(); s.ServeConn(conn) }()
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					conn, err := DialTCP(l.Addr())
					if err != nil {
						t.Error(err)
						return
					}
					c := newEchoClient(conn)
					defer c.Close()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 150; i++ {
						payload := make([]byte, ZeroCopyThreshold+rng.Intn(96<<10))
						rng.Read(payload)
						d, err := c.Call(9, "echo", false, func(e *Encoder) {
							e.Grow(4)
							e.PutU32BE(uint32(len(payload)))
							e.PutBytesZC(payload)
						})
						if err != nil {
							t.Errorf("caller %d: %v", g, err)
							return
						}
						n, ok := d.Len(BE, 0, false, 1)
						if !ok || !d.Ensure(n) || !bytes.Equal(d.Next(n), payload) {
							t.Errorf("caller %d, call %d: the echo of %d bytes came back different", g, i, len(payload))
							d.Release()
							return
						}
						d.Release()
					}
				}(g)
			}
			wg.Wait()
			d := ReadZeroCopyStats().Sub(before)
			if d.AliasViews < 600 || d.ArenaPinned != 0 {
				t.Errorf("alias views = %d, pinned = %d: want every request aliased and none pinned", d.AliasViews, d.ArenaPinned)
			}
			if flatten && d.FlattenedSends == 0 || !flatten && d.VectoredSends == 0 {
				t.Errorf("vectored = %d, flattened = %d: the wrong send path ran", d.VectoredSends, d.FlattenedSends)
			}
		})
	}
}

// --- the ledger -------------------------------------------------------------------

// arenaBaseline snapshots the counters once they have stopped moving:
// an earlier test's server may still be releasing its last request
// (a worker sends the reply first), and a buffer drawn before the
// snapshot but settled after it would unbalance the ledger by one.
func arenaBaseline() ZeroCopyStats {
	prev := ReadZeroCopyStats()
	for quiet := 0; quiet < 5; {
		time.Sleep(2 * time.Millisecond)
		if cur := ReadZeroCopyStats(); cur == prev {
			quiet++
		} else {
			quiet, prev = 0, cur
		}
	}
	return prev
}

// arenaSettled polls until every buffer drawn since before has been
// settled — recycled, pinned, or dropped by a full pool — and reports
// the final deltas.
func arenaSettled(before ZeroCopyStats) (ZeroCopyStats, bool) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		d := ReadZeroCopyStats().Sub(before)
		if d.ArenaGets == d.ArenaPuts+d.ArenaPinned+d.ArenaDropped {
			return d, true
		}
		if time.Now().After(deadline) {
			return d, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestArenaLedgerSoak drives every way a received frame can die —
// answered calls, oneways, batch frames split by the server and by a
// BatchConn, stream chunks consumed and abandoned, credit grants, call
// cancels, CRC rejects, injected drops, duplicates and truncations,
// oversized frames, replies to calls that timed out, a GOAWAY — and
// then demands the ledger: every buffer drawn went home, was pinned, or
// was dropped by a full free list. Nothing is leaked to the collector
// unaccounted, so what a peer can make the receiver hold is bounded by
// what is in flight.
func TestArenaLedgerSoak(t *testing.T) {
	before := arenaBaseline()
	poolBefore := ReadPoolStats()
	calls := 300
	if testing.Short() {
		calls = 80
	}

	dispatch := func(h *ReqHeader, d *Decoder, e *Encoder) error {
		switch h.Proc {
		case 5: // a stream of n chunks of size bytes
			h.OpName, h.OneWay = "chunks", true
			if !d.Ensure(8) {
				return d.Err()
			}
			n, size := d.U32BE(), int(d.U32BE())
			sn := NewStreamSender(h)
			var err error
			for i := uint32(0); i < n && err == nil; i++ {
				err = sn.Send(func(e *Encoder) { e.Grow(size); e.Next(size)[0] = byte(i) })
			}
			sn.Finish(nil)
			return nil
		case 9:
			return echoViewDispatch(h, d, e)
		}
		return echoDispatch(h, d, e)
	}

	// Phase one, over pipes (which enforce MaxMessage after receipt), a
	// batching client over CRC: first on a lossy, duplicating, damaging
	// link against a server reading through CRC alone (its own batch
	// splitter), then on a clean link — streams need their cancel frames
	// delivered, or a credit-starved sender holds its request for good —
	// against a server reading through a BatchConn.
	for _, serverBatches := range []bool{false, true} {
		cliEnd, srvEnd := Pipe()
		plan := FaultPlan{Seed: 7}
		if !serverBatches {
			plan.Drop, plan.Duplicate, plan.Corrupt, plan.Truncate = 0.03, 0.03, 0.03, 0.02
		}
		fault, err := NewFaultConn(cliEnd, plan)
		if err != nil {
			t.Fatal(err)
		}
		cliConn := NewBatchConn(crc(fault), BatchConfig{})
		s := NewServer(ONC{})
		s.Workers, s.MaxMessage, s.DupWindow = 4, 200<<10, 32
		s.Metrics = NewMetrics()
		s.Register(7, 1, dispatch)
		srvConn := crc(srvEnd)
		if serverBatches {
			srvConn = NewBatchConn(srvConn, BatchConfig{Metrics: s.Metrics})
		}
		served := make(chan struct{})
		go func() { defer close(served); s.ServeConn(srvConn) }()

		c := newEchoClient(cliConn)
		c.Timeout = 40 * time.Millisecond
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < calls/4; i++ {
					kind := rng.Intn(8)
					if kind == 2 && !serverBatches {
						kind = 7 // no streams on the lossy link
					}
					switch kind {
					case 0: // oneway
						c.Call(3, "note", true, func(e *Encoder) {})
					case 1: // oversized: dropped after receipt, the call times out
						d, err := c.Call(1, "double", false, func(e *Encoder) { e.Grow(210 << 10); e.Next(210 << 10) })
						if err == nil {
							d.Release()
						}
					case 2: // a stream, drained or abandoned half way with chunks buffered
						st, err := c.CallStream(5, "chunks", 4, func(e *Encoder) {
							e.PutU32BEC(uint32(2 + rng.Intn(10)))
							e.PutU32BEC(uint32(16 + rng.Intn(70<<10)))
						})
						if err != nil {
							continue
						}
						for k := 0; ; k++ {
							d, err := st.Recv()
							if err != nil {
								break
							}
							d.Release()
							if k == 2 && g%2 == 0 {
								st.Cancel()
								break
							}
						}
					case 3: // an aliased argument echoed back by reference
						payload := bytes.Repeat([]byte{byte(i)}, 600+rng.Intn(20<<10))
						d, err := c.Call(9, "echo", false, func(e *Encoder) {
							e.PutU32BEC(uint32(len(payload)))
							e.Grow(len(payload))
							e.PutBytes(payload)
						})
						if err == nil {
							if n, ok := d.Len(BE, 0, false, 1); !ok || !d.Ensure(n) || !bytes.Equal(d.Next(n), payload) {
								t.Errorf("caller %d: echo mismatch", g)
							}
							d.Release()
						}
					default: // plain calls; losses surface as timeouts
						if d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(uint32(i)) }); err == nil {
							d.Release()
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if s.Metrics.Oversized.Load() == 0 || s.Metrics.BatchedCalls.Load() == 0 {
			t.Errorf("serverBatches=%v: oversized = %d, batched = %d: the soak missed a path",
				serverBatches, s.Metrics.Oversized.Load(), s.Metrics.BatchedCalls.Load())
		}
		// Quiesce before the teardown: a pipe drops what is still queued
		// in it when it closes, and that would be the test's leak, not
		// the runtime's.
		if d, ok := arenaSettled(before); !ok {
			t.Fatalf("serverBatches=%v, before teardown: gets = %d, puts = %d, pinned = %d, dropped = %d: %d buffers unaccounted for",
				serverBatches, d.ArenaGets, d.ArenaPuts, d.ArenaPinned, d.ArenaDropped,
				int64(d.ArenaGets)-int64(d.ArenaPuts+d.ArenaPinned+d.ArenaDropped))
		}
		c.Close()
		srvConn.Close()
		<-served
	}

	// Phase two, over TCP (which delivers what was written before the
	// close): calls, then a lameduck drain whose GOAWAY the client reads.
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ONC{})
	s.Register(7, 1, dispatch)
	go s.Serve(l)
	conn, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newEchoClient(conn)
	c.Metrics = NewMetrics()
	for i := 0; i < 20; i++ {
		doubleCall(t, c, uint32(i))
	}
	if !s.Drain(2 * time.Second) {
		t.Error("drain with nothing in flight did not settle")
	}
	for deadline := time.Now().Add(2 * time.Second); c.Metrics.GoAways.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the client never saw the GOAWAY")
		}
	}
	c.Close()
	l.Close()

	d, ok := arenaSettled(before)
	if !ok {
		t.Fatalf("gets = %d, puts = %d, pinned = %d, dropped = %d: the ledger does not balance",
			d.ArenaGets, d.ArenaPuts, d.ArenaPinned, d.ArenaDropped)
	}
	if d.ArenaPinned != 0 {
		t.Errorf("pinned = %d: every view in the soak was handler-scoped", d.ArenaPinned)
	}
	t.Logf("ledger: %d drawn = %d recycled + %d pinned + %d dropped", d.ArenaGets, d.ArenaPuts, d.ArenaPinned, d.ArenaDropped)
	for deadline := time.Now().Add(2 * time.Second); !ReadPoolStats().Sub(poolBefore).Balanced(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pool imbalance after the soak: %+v", ReadPoolStats().Sub(poolBefore))
		}
	}
}

// TestPlainRecvSettlesAsEscaped: a message taken through plain Recv has
// no lease to give back, so its buffer is settled as escaped — counted,
// never recycled under the caller.
func TestPlainRecvSettlesAsEscaped(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	before := ReadZeroCopyStats()
	if err := a.Send([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	msg, err := plainOnly{b}.Recv()
	if err != nil || string(msg) != "kept" {
		t.Fatalf("Recv = %q, %v", msg, err)
	}
	if d := ReadZeroCopyStats().Sub(before); d.ArenaGets != 1 || d.ArenaPinned != 1 || d.ArenaPuts != 0 {
		t.Errorf("gets = %d, pinned = %d, puts = %d; want 1, 1, 0", d.ArenaGets, d.ArenaPinned, d.ArenaPuts)
	}
}
