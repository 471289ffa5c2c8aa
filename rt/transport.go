package rt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"
)

// Conn exchanges whole framed messages.
//
// Concurrency contract (the pipelined call engine depends on it): Send
// is safe for concurrent writers — every implementation serializes
// whole messages, so frames from concurrent calls and out-of-order
// replies never interleave on the wire. Recv is single-reader: exactly
// one goroutine (the client's reply reader, or a server connection's
// decode loop) may call it.
type Conn interface {
	// Send transmits one message. The buffer may be reused by the
	// caller after Send returns. Safe for concurrent use.
	Send(msg []byte) error
	// Recv returns the next whole message. Single goroutine only.
	Recv() ([]byte, error)
	Close() error
}

// Listener accepts connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// ErrClosed reports use of a closed transport.
var ErrClosed = errors.New("rt: transport closed")

// --- TCP with record marking --------------------------------------------------

// defaultMaxMessage bounds received messages when no tighter limit is
// configured (Server.MaxMessage / SetMaxMessage).
const defaultMaxMessage = 64 << 20

// readAhead sizes a tcpConn's receive buffer: a small frame costs one
// read(2) for mark and body together, and pipelined small frames drain
// several per syscall. A body's remainder at least this long is read
// straight into its arena buffer, so a bulk payload is copied once.
const readAhead = 4 << 10

// tcpConn frames messages with the ONC record-marking convention: a u32
// header whose low 31 bits give the fragment length, high bit set on the
// last fragment. We always send whole messages as single fragments.
type tcpConn struct {
	c net.Conn
	// rd is Recv's read-ahead buffer (single reader, created on first
	// use).
	rd  *bufio.Reader
	wmu sync.Mutex
	// whdr/wvec/wbufs are the frame writer's scratch (guarded by wmu):
	// a persistent record-mark header, the iovec list, and the
	// net.Buffers value WriteTo consumes — conn fields, so a send
	// allocates nothing.
	whdr  [4]byte
	wvec  [][]byte
	wbufs net.Buffers
	// maxMsg bounds received messages. The length field of a record
	// mark is attacker-controlled, so Recv validates it against this
	// bound — cumulatively across fragments — *before* drawing the
	// body buffer: a hostile frame claiming a huge body costs the
	// attacker a connection, not the server a huge allocation.
	maxMsg int
}

// DialTCP connects to an RPC server over TCP.
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// newTCPConn wraps a dialed or accepted connection. A loopback one is
// first taken off a pacing congestion controller (see unpaceLoopback).
func newTCPConn(c net.Conn) *tcpConn {
	unpaceLoopback(c)
	return &tcpConn{c: c}
}

// Send writes the record mark and msg with one writev. Holding wmu for
// the whole write preserves the whole-message serialization the
// record-marking framing depends on.
func (t *tcpConn) Send(msg []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.wvec = append(t.wvec[:0], t.whdr[:], msg)
	return t.writeFrame(len(msg))
}

// SendVectored is Send for a message in several segments (see
// vector.go): mark and every segment leave in the same single writev.
func (t *tcpConn) SendVectored(segs [][]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.wvec = append(append(t.wvec[:0], t.whdr[:]), segs...)
	return t.writeFrame(total)
}

// writeFrame stamps the mark of an n-byte single-fragment record into
// whdr and writes wvec (whdr first, then the body). Caller holds wmu.
func (t *tcpConn) writeFrame(n int) error {
	binary.BigEndian.PutUint32(t.whdr[:], uint32(n)|0x80000000)
	t.wbufs = t.wvec
	_, err := t.wbufs.WriteTo(t.c)
	// WriteTo consumes wbufs in place but stops at an error; clear the
	// scratch so the conn never pins the caller's payload.
	clear(t.wvec)
	return err
}

// SetMaxMessage bounds received messages (headers validated before any
// body allocation). Applied by Server.MaxMessage; set before the first
// Recv.
func (t *tcpConn) SetMaxMessage(n int) { t.maxMsg = n }

// SetReadDeadline bounds the next Recv (Server.IdleTimeout).
func (t *tcpConn) SetReadDeadline(dl time.Time) error { return t.c.SetReadDeadline(dl) }

func (t *tcpConn) Recv() ([]byte, error) { return recvEscaped(t) }

// RecvLease reads the next record into one receive-arena buffer and
// returns it with its lease (see LeaseReceiver).
func (t *tcpConn) RecvLease() ([]byte, *Lease, error) {
	if t.rd == nil {
		t.rd = bufio.NewReaderSize(t.c, readAhead)
	}
	max := t.maxMsg
	if max <= 0 {
		max = defaultMaxMessage
	}
	// msg is nil until the first fragment draws it from the receive
	// arena; every error return hands it back (Release ignores nil).
	var msg *Lease
	for {
		hdr, err := t.rd.Peek(4)
		if err != nil {
			// Only an EOF between records is a clean close.
			if err == io.EOF && (len(hdr) > 0 || msg != nil) {
				err = io.ErrUnexpectedEOF
			}
			msg.Release()
			return nil, nil, err
		}
		mark := binary.BigEndian.Uint32(hdr)
		n, off := int(mark&0x7FFFFFFF), 0
		if msg != nil {
			off = len(msg.buf)
		}
		// Validate the claimed length — including the running total
		// across fragments — before drawing a buffer for, or consuming,
		// a single body byte.
		if n > max || off+n > max {
			msg.Release()
			return nil, nil, fmt.Errorf("rt: oversized record fragment (%d bytes, %d max)", off+n, max)
		}
		t.rd.Discard(4)
		// The whole message is this conn's to give away, so it lives in
		// one arena buffer — its last reader's release recycles it. A
		// continuation fragment extends it in place, moving to a larger
		// buffer only when the capacity runs out.
		msg = msg.grow(off + n)
		// What read-ahead already holds is copied; the rest of a large
		// body is read directly into the buffer.
		if _, err := io.ReadFull(t.rd, msg.buf[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			msg.Release()
			return nil, nil, err
		}
		if mark&0x80000000 != 0 {
			return msg.buf, msg, nil
		}
	}
}

func (t *tcpConn) Close() error { return t.c.Close() }

type tcpListener struct{ l net.Listener }

// ListenTCP starts a TCP listener; addr ":0" picks a free port.
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// --- UDP ------------------------------------------------------------------------

// udpConn sends each message as one datagram (classic ONC/UDP).
// Send is concurrency-safe: net.UDPConn serializes datagram writes, and
// peer is only written before the first concurrent use (see Recv).
type udpConn struct {
	c *net.UDPConn
	// connected marks a dialed (pre-connected) socket, which must use
	// Write rather than WriteToUDPAddrPort.
	connected bool
	// peer records the first datagram's source on server-side
	// (unconnected) conns; replies go back to it. Held by value: the
	// AddrPort calls allocate no address per datagram.
	peer netip.AddrPort
	rbuf []byte
}

// DialUDP connects a datagram client.
func DialUDP(addr string) (Conn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &udpConn{c: c, connected: true, rbuf: make([]byte, 64<<10)}, nil
}

func (u *udpConn) Send(msg []byte) error {
	if len(msg) > 64<<10 {
		return fmt.Errorf("rt: message too large for UDP (%d bytes)", len(msg))
	}
	if u.peer.IsValid() {
		_, err := u.c.WriteToUDPAddrPort(msg, u.peer)
		return err
	}
	_, err := u.c.Write(msg)
	return err
}

func (u *udpConn) Recv() ([]byte, error) { return recvEscaped(u) }

// RecvLease copies the next datagram out of rbuf into a receive-arena
// buffer of its own and returns it with its lease.
func (u *udpConn) RecvLease() ([]byte, *Lease, error) {
	n, peer, err := u.c.ReadFromUDPAddrPort(u.rbuf)
	if err != nil {
		return nil, nil, err
	}
	if !u.connected && !u.peer.IsValid() {
		u.peer = peer
	}
	out := getLease(n)
	copy(out.buf, u.rbuf[:n])
	return out.buf, out, nil
}

// SetReadDeadline bounds the next Recv (Server.IdleTimeout).
func (u *udpConn) SetReadDeadline(dl time.Time) error { return u.c.SetReadDeadline(dl) }

func (u *udpConn) Close() error { return u.c.Close() }

// ListenUDP returns a server-side UDP "connection" that answers each
// datagram's source (single-conn model: suitable for one dispatch loop).
func ListenUDP(addr string) (Conn, string, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, "", err
	}
	c, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, "", err
	}
	return &udpConn{c: c, rbuf: make([]byte, 64<<10)}, c.LocalAddr().String(), nil
}

// --- In-process ports (Mach / Fluke) ---------------------------------------------

// pipeConn is an in-process message port pair modeling Mach ports and
// Fluke IPC: no network stack, messages pass by reference between
// goroutines.
type pipeConn struct {
	send chan<- *Lease
	recv <-chan *Lease
	// closing is shared by both ends: closing either (or both) ends
	// tears the pair down exactly once.
	closing *pipeClose
}

type pipeClose struct {
	once sync.Once
	done chan struct{}
}

// Pipe returns two connected in-process ports.
func Pipe() (Conn, Conn) {
	a2b := make(chan *Lease, 16)
	b2a := make(chan *Lease, 16)
	cl := &pipeClose{done: make(chan struct{})}
	a := &pipeConn{send: a2b, recv: b2a, closing: cl}
	b := &pipeConn{send: b2a, recv: a2b, closing: cl}
	return a, b
}

func (p *pipeConn) Send(msg []byte) error {
	// Fail deterministically once closed (the buffered channel could
	// otherwise still win the race below).
	select {
	case <-p.closing.done:
		return ErrClosed
	default:
	}
	// Messages pass by value (the caller reuses its buffer). The copy
	// is the receiver's property, so it draws from the arena pool and
	// crosses the channel under its lease.
	out := getLease(len(msg))
	copy(out.buf, msg)
	select {
	case p.send <- out:
		return nil
	case <-p.closing.done:
		out.Release()
		return ErrClosed
	}
}

func (p *pipeConn) Recv() ([]byte, error) { return recvEscaped(p) }

func (p *pipeConn) RecvLease() ([]byte, *Lease, error) {
	select {
	case m := <-p.recv:
		return m.buf, m, nil
	case <-p.closing.done:
		return nil, nil, ErrClosed
	}
}

func (p *pipeConn) Close() error {
	p.closing.once.Do(func() { close(p.closing.done) })
	return nil
}
