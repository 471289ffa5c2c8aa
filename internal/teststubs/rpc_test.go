package teststubs

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"flick/rt"
)

// benchImpl implements the Bench interface for tests.
type benchImpl struct {
	ints  atomic.Int64
	pings atomic.Int64
	dirs  []BenchDirEntry
}

func (b *benchImpl) SendInts(v []int32) (err error) {
	var sum int64
	for _, x := range v {
		sum += int64(x)
	}
	b.ints.Add(sum)
	return nil
}

func (b *benchImpl) SendRects(v []BenchRect) (err error) { return nil }

func (b *benchImpl) SendDirs(v []BenchDirEntry) (err error) {
	b.dirs = append([]BenchDirEntry(nil), v...)
	return nil
}

func (b *benchImpl) Sum(v []int32) (ret int32, err error) {
	if len(v) == 0 {
		return 0, &BenchBadSize{Wanted: 1}
	}
	for _, x := range v {
		ret += x
	}
	return ret, nil
}

func (b *benchImpl) ListDir(path string) (ret []BenchDirEntry, total int32, err error) {
	return b.dirs, int32(len(b.dirs)) * 2, nil
}

func (b *benchImpl) Ping(nonce int32) (err error) {
	b.pings.Add(int64(nonce))
	return nil
}

// XDR (ONC protocol) generated wrappers satisfy the server interface.
var _ BenchXDRServer = (*benchImpl)(nil)
var _ BenchCDRServer = (*benchImpl)(nil)

func startPipeServerXDR(t *testing.T, impl BenchXDRServer) rt.Conn {
	t.Helper()
	clientEnd, serverEnd := rt.Pipe()
	s := rt.NewServer(rt.ONC{})
	RegisterBenchXDR(s, impl)
	go s.ServeConn(serverEnd)
	t.Cleanup(func() { clientEnd.Close() })
	return clientEnd
}

func TestRPCOverPipeXDR(t *testing.T) {
	impl := &benchImpl{}
	c := NewBenchXDRClient(startPipeServerXDR(t, impl))

	if err := c.SendInts([]int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := impl.ints.Load(); got != 6 {
		t.Errorf("server saw sum %d", got)
	}

	ret, err := c.Sum([]int32{10, 20})
	if err != nil || ret != 30 {
		t.Errorf("Sum = %d, %v", ret, err)
	}

	// Exception crosses the wire typed.
	_, err = c.Sum(nil)
	var ex *BenchBadSize
	if !errors.As(err, &ex) || ex.Wanted != 1 {
		t.Errorf("Sum(nil) err = %v", err)
	}

	// Out param + result.
	dirs := randDirs(rand.New(rand.NewSource(9)), 5)
	if err := c.SendDirs(dirs); err != nil {
		t.Fatal(err)
	}
	back, total, err := c.ListDir("/tmp")
	if err != nil || total != 10 || !reflect.DeepEqual(back, dirs) {
		t.Errorf("ListDir: total=%d err=%v match=%v", total, err, reflect.DeepEqual(back, dirs))
	}

	// Oneway: no reply, but the server still processes it (pipe
	// ordering guarantees it lands before the next two-way call).
	if err := c.Ping(41); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sum([]int32{1}); err != nil {
		t.Fatal(err)
	}
	if got := impl.pings.Load(); got != 41 {
		t.Errorf("pings = %d", got)
	}
}

func TestRPCOverTCP(t *testing.T) {
	impl := &benchImpl{}
	l, err := rt.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := rt.NewServer(rt.ONC{})
	RegisterBenchXDR(s, impl)
	go s.Serve(l)

	conn, err := rt.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := NewBenchXDRClient(conn)
	defer c.C.Close()

	ret, err := c.Sum([]int32{5, 6, 7})
	if err != nil || ret != 18 {
		t.Fatalf("Sum over TCP = %d, %v", ret, err)
	}
	// A large payload crosses record-marking intact.
	big := make([]int32, 300_000)
	for i := range big {
		big[i] = int32(i)
	}
	if err := c.SendInts(big); err != nil {
		t.Fatal(err)
	}
}

func TestRPCOverUDP(t *testing.T) {
	impl := &benchImpl{}
	serverConn, addr, err := rt.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverConn.Close()
	s := rt.NewServer(rt.ONC{})
	RegisterBenchXDR(s, impl)
	go s.ServeConn(serverConn)

	conn, err := rt.DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBenchXDRClient(conn)
	defer c.C.Close()
	ret, err := c.Sum([]int32{2, 3})
	if err != nil || ret != 5 {
		t.Fatalf("Sum over UDP = %d, %v", ret, err)
	}
}

func TestRPCOverPipeGIOP(t *testing.T) {
	// The CORBA path: GIOP headers, CDR-LE payloads, and word-at-a-time
	// operation-name demultiplexing in the generated dispatcher.
	impl := &benchImpl{}
	clientEnd, serverEnd := rt.Pipe()
	s := rt.NewServer(rt.GIOP{Little: true})
	RegisterBenchCDR(s, impl)
	go s.ServeConn(serverEnd)
	defer clientEnd.Close()

	c := NewBenchCDRClient(clientEnd)
	ret, err := c.Sum([]int32{100, 200})
	if err != nil || ret != 300 {
		t.Fatalf("Sum over GIOP = %d, %v", ret, err)
	}
	dirs := randDirs(rand.New(rand.NewSource(13)), 3)
	if err := c.SendDirs(dirs); err != nil {
		t.Fatal(err)
	}
	back, total, err := c.ListDir("x")
	if err != nil || total != 6 || !reflect.DeepEqual(back, dirs) {
		t.Errorf("ListDir over GIOP: total=%d err=%v", total, err)
	}
	_, err = c.Sum(nil)
	var ex *BenchBadSize
	if !errors.As(err, &ex) {
		t.Errorf("exception over GIOP = %v", err)
	}
}

func TestRPCMachAndFluke(t *testing.T) {
	impl := &benchImpl{}
	for _, tc := range []struct {
		name  string
		proto rt.Protocol
		reg   func(*rt.Server, *benchImpl)
		mk    func(rt.Conn) interface {
			Sum(v []int32) (int32, error)
		}
	}{
		{"mach3", rt.Mach{}, func(s *rt.Server, i *benchImpl) { RegisterBenchMach(s, i) },
			func(c rt.Conn) interface {
				Sum(v []int32) (int32, error)
			} {
				return NewBenchMachClient(c)
			}},
		{"fluke", rt.Fluke{}, func(s *rt.Server, i *benchImpl) { RegisterBenchFluke(s, i) },
			func(c rt.Conn) interface {
				Sum(v []int32) (int32, error)
			} {
				return NewBenchFlukeClient(c)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clientEnd, serverEnd := rt.Pipe()
			s := rt.NewServer(tc.proto)
			tc.reg(s, impl)
			go s.ServeConn(serverEnd)
			defer clientEnd.Close()
			c := tc.mk(clientEnd)
			ret, err := c.Sum([]int32{4, 5})
			if err != nil || ret != 9 {
				t.Fatalf("Sum = %d, %v", ret, err)
			}
		})
	}
}

func TestUnknownOperation(t *testing.T) {
	impl := &benchImpl{}
	c := startPipeServerXDR(t, impl)
	cl := rt.NewClient(c, rt.ONC{})
	_, err := cl.Call(99, "nope", false, func(e *rt.Encoder) {})
	if !errors.Is(err, rt.ErrSystem) {
		t.Errorf("unknown op error = %v", err)
	}
}

func TestMalformedArgumentsGetSystemError(t *testing.T) {
	impl := &benchImpl{}
	c := startPipeServerXDR(t, impl)
	cl := rt.NewClient(c, rt.ONC{})
	// send_dirs (proc 2) with a truncated payload.
	_, err := cl.Call(2, "send_dirs", false, func(e *rt.Encoder) {
		e.Grow(4)
		e.PutU32BE(5) // claims 5 entries, then nothing
	})
	if !errors.Is(err, rt.ErrSystem) {
		t.Errorf("malformed args error = %v", err)
	}
	// The connection survives for the next call.
	bc := &BenchXDRClient{C: cl}
	if _, err := bc.Sum([]int32{1, 2}); err != nil {
		t.Errorf("call after error: %v", err)
	}
}
