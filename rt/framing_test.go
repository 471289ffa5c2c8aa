package rt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for tcpConn's frame I/O: one writev out, read-ahead in, zero
// allocations either way, and the hostile edges of the record-marking
// parser through that path.

// frame returns one record fragment: mark (final bit as given) + body.
func frame(body []byte, final bool) []byte {
	mark := uint32(len(body))
	if final {
		mark |= 0x80000000
	}
	return append(binary.BigEndian.AppendUint32(nil, mark), body...)
}

// pattern returns n bytes that differ by position and by seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// countConn counts the Reads a tcpConn issues on its socket and records
// the largest destination one of them was given.
type countConn struct {
	net.Conn
	reads  int
	maxDst int
}

func (c *countConn) Read(p []byte) (int, error) {
	c.reads++
	if len(p) > c.maxDst {
		c.maxDst = len(p)
	}
	return c.Conn.Read(p)
}

// pipePeer returns a tcpConn over one end of a net.Pipe and the other
// end for a hand-rolled peer, which write runs in its own goroutine
// (net.Pipe writes block until read) and then closes.
func pipePeer(t *testing.T, write func(peer net.Conn)) (*tcpConn, *countConn) {
	t.Helper()
	peer, local := net.Pipe()
	cc := &countConn{Conn: local}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer peer.Close()
		write(peer)
	}()
	t.Cleanup(func() { local.Close(); <-done })
	return &tcpConn{c: cc}, cc
}

// loopbackPair returns both ends of one loopback TCP connection.
func loopbackPair(t *testing.T) (dialed, accepted Conn) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed, err = DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// echoFrames answers every frame on c with itself, recycling the
// receive buffer, until c fails.
func echoFrames(c Conn) {
	for {
		m, lease, err := RecvLease(c)
		if err != nil {
			return
		}
		err = c.Send(m)
		lease.Release()
		if err != nil {
			return
		}
	}
}

// --- allocation guards --------------------------------------------------------

// TestTCPFrameAllocs: a frame out and a frame back — four framing
// operations, two in each process-wide direction — allocate nothing in
// steady state, for a small frame and for one that fills the mid class.
func TestTCPFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	a, b := loopbackPair(t)
	go echoFrames(b)
	for _, n := range []int{128, 64 << 10} {
		msg := pattern(n, 1)
		avg := testing.AllocsPerRun(200, func() {
			if err := a.Send(msg); err != nil {
				t.Fatal(err)
			}
			got, lease, err := RecvLease(a)
			if err != nil || len(got) != n {
				t.Fatalf("echo of %d bytes = %d bytes, %v", n, len(got), err)
			}
			lease.Release()
		})
		if avg != 0 {
			t.Errorf("Send+Recv of a %d-byte frame, both ends: %.1f allocs/op, want 0", n, avg)
		}
	}
}

// TestUDPRecvAllocs: a datagram out and back allocates nothing beyond
// the arena buffers (recycled here) — no address object per datagram.
func TestUDPRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	server, addr, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go echoFrames(server)
	c, err := DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := pattern(128, 2)
	avg := testing.AllocsPerRun(200, func() {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, lease, err := RecvLease(c)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("udp echo = %d bytes, %v", len(got), err)
		}
		lease.Release()
	})
	if avg != 0 {
		t.Errorf("UDP Send+Recv, both ends: %.1f allocs/op, want 0", avg)
	}
}

// --- read-ahead ---------------------------------------------------------------

// TestRecvReadAheadDrainsPipelinedFrames: two small frames that arrive
// in one chunk cost one read on the socket.
func TestRecvReadAheadDrainsPipelinedFrames(t *testing.T) {
	one, two := pattern(100, 1), pattern(300, 2)
	tc, cc := pipePeer(t, func(peer net.Conn) {
		peer.Write(append(frame(one, true), frame(two, true)...))
	})
	for i, want := range [][]byte{one, two} {
		got, err := tc.Recv()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %d bytes, %v", i, len(got), err)
		}
	}
	if cc.reads != 1 {
		t.Errorf("two pipelined frames took %d socket reads, want 1", cc.reads)
	}
}

// TestRecvBulkBodyBypassesReadAhead: a 256 KiB body is read into its
// arena buffer directly — only the prefix that rode in with the mark is
// copied out of the read-ahead buffer.
func TestRecvBulkBodyBypassesReadAhead(t *testing.T) {
	body := pattern(256<<10, 3)
	tc, cc := pipePeer(t, func(peer net.Conn) { peer.Write(frame(body, true)) })
	got, err := tc.Recv()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("Recv = %d bytes, %v", len(got), err)
	}
	if cc.maxDst < 64<<10 {
		t.Errorf("largest socket read destination = %d bytes, want the arena buffer (>= 64 KiB)", cc.maxDst)
	}
}

// --- multi-fragment records ---------------------------------------------------

// TestRecvMultiFragment: a record in three fragments arrives byte-exact
// in one arena buffer, and whether it completes, is cut short, or
// crosses the bound, every buffer drawn is handed back.
func TestRecvMultiFragment(t *testing.T) {
	f1, f2, f3 := pattern(3000, 1), pattern(3000, 2), pattern(3000, 3)
	cases := []struct {
		name   string
		max    int
		wire   []byte
		want   []byte
		errHas string
	}{
		{name: "three fragments", want: bytes.Join([][]byte{f1, f2, f3}, nil),
			wire: bytes.Join([][]byte{frame(f1, false), frame(f2, false), frame(f3, true)}, nil)},
		{name: "truncated second fragment", errHas: "unexpected EOF",
			wire: bytes.Join([][]byte{frame(f1, false), frame(f2, false)[:104]}, nil)},
		{name: "running total over the bound", max: 4096, errHas: "oversized",
			wire: bytes.Join([][]byte{frame(f1, false), frame(f2, true)}, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, _ := pipePeer(t, func(peer net.Conn) { peer.Write(tc.wire) })
			conn.SetMaxMessage(tc.max)
			before := ReadZeroCopyStats()
			got, lease, err := conn.RecvLease()
			if tc.errHas != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("Recv = %d bytes, %v; want an error containing %q", len(got), err, tc.errHas)
				}
			} else if err != nil || !bytes.Equal(got, tc.want) {
				t.Fatalf("Recv = %d bytes, %v; want %d bytes", len(got), err, len(tc.want))
			}
			lease.Release()
			if d := ReadZeroCopyStats().Sub(before); d.ArenaGets == 0 || d.ArenaGets != d.ArenaPuts {
				t.Errorf("arena gets = %d, puts = %d: want balanced", d.ArenaGets, d.ArenaPuts)
			}
		})
	}
}

// --- hostile edge -------------------------------------------------------------

// TestRecvOversizedMarkConsumesNothing: the mark is judged where it
// lies — no buffer is drawn for the claimed body and not one byte after
// the mark is taken from the stream.
func TestRecvOversizedMarkConsumesNothing(t *testing.T) {
	wire := frame(pattern(16, 1), true)
	binary.BigEndian.PutUint32(wire, 1<<30|0x80000000)
	tc, _ := pipePeer(t, func(peer net.Conn) { peer.Write(wire) })
	tc.SetMaxMessage(1 << 16)
	before := ReadZeroCopyStats()
	_, err := tc.Recv()
	if err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("Recv = %v, want oversized-frame error", err)
	}
	if d := ReadZeroCopyStats().Sub(before); d.ArenaGets != 0 {
		t.Errorf("ArenaGets = %d, want 0 (rejected before a buffer is drawn)", d.ArenaGets)
	}
	if got := tc.rd.Buffered(); got != len(wire) {
		t.Errorf("%d bytes still buffered, want all %d (nothing consumed)", got, len(wire))
	}
}

// TestRecvEOF: an EOF between records is a clean close; one that cuts
// a mark short is not.
func TestRecvEOF(t *testing.T) {
	whole := frame(pattern(40, 1), true)
	for cut := 0; cut <= 3; cut++ {
		tc, _ := pipePeer(t, func(peer net.Conn) { peer.Write(append(whole[:len(whole):len(whole)], whole[:cut]...)) })
		if got, err := tc.Recv(); err != nil || !bytes.Equal(got, whole[4:]) {
			t.Fatalf("first frame = %d bytes, %v", len(got), err)
		}
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if _, err := tc.Recv(); err != want {
			t.Errorf("EOF after %d mark bytes: Recv = %v, want %v", cut, err, want)
		}
	}
}

// TestServerIdleReapPartialFrame: IdleTimeout reaps a peer that went
// silent mid-frame, whether the bytes it did send sit in the read-ahead
// buffer (a partial mark) or partly in an arena buffer (a partial body).
func TestServerIdleReapPartialFrame(t *testing.T) {
	for name, partial := range map[string][]byte{
		"partial mark": frame(nil, true)[:2],
		"partial body": frame(pattern(64, 1), true)[:30],
	} {
		t.Run(name, func(t *testing.T) {
			l, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			s := NewServer(ONC{})
			s.IdleTimeout = 40 * time.Millisecond
			s.Metrics = NewMetrics()
			s.Register(7, 1, echoDispatch)
			errc := make(chan error, 1)
			go func() {
				conn, err := l.Accept()
				if err != nil {
					errc <- err
					return
				}
				errc <- s.ServeConn(conn)
			}()
			peer, err := net.Dial("tcp", l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			if _, err := peer.Write(partial); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("idle reap surfaced an error: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("connection stalled mid-frame was never reaped")
			}
			if got := s.Metrics.IdleReaped.Load(); got != 1 {
				t.Errorf("IdleReaped = %d, want 1", got)
			}
		})
	}
}

// TestTCPCloseUnblocksRecv: Close releases a Recv parked in the
// read-ahead fill.
func TestTCPCloseUnblocksRecv(t *testing.T) {
	a, _ := loopbackPair(t)
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Recv park; the outcome is the same if it has not
	a.Close()
	select {
	case err := <-errc:
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("Recv after Close = %v, want a closed-connection error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Recv")
	}
}

// --- concurrent writers -------------------------------------------------------

// TestTCPConcurrentSendersWholeFrames: Send and SendVectored share one
// framing writer, so frames from eight goroutines mixing the two never
// interleave: each arrives whole, carrying one sender's byte throughout.
// Run with -race.
func TestTCPConcurrentSendersWholeFrames(t *testing.T) {
	const senders, perSender = 8, 200
	a, b := loopbackPair(t)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				// 4 id bytes + up to ~12 KiB, so some writes are partial.
				msg := bytes.Repeat([]byte{byte(g)}, 4+(i*61)%12000)
				var err error
				if (g+i)%2 == 0 {
					err = a.Send(msg)
				} else {
					k := len(msg) / 3
					err = SendVectored(a, [][]byte{msg[:k], msg[k : 2*k], msg[2*k:]})
				}
				if err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	var seen [senders]int
	for n := 0; n < senders*perSender; n++ {
		m, lease, err := RecvLease(b)
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		g := int(m[0])
		if g >= senders || !bytes.Equal(m, bytes.Repeat(m[:1], len(m))) || len(m) != 4+(seen[g]*61)%12000 {
			t.Fatalf("frame %d (sender %d, its #%d, %d bytes) is torn or interleaved", n, g, seen[g%senders], len(m))
		}
		seen[g]++
		lease.Release()
	}
	wg.Wait()
}
