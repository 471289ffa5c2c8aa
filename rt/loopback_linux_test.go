package rt

import (
	"net"
	"syscall"
	"testing"
	"unsafe"
)

// congestionControl reads c's TCP_CONGESTION.
func congestionControl(t *testing.T, c net.Conn) string {
	t.Helper()
	rc, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var name [16]byte
	n := uint32(len(name))
	var errno syscall.Errno
	rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_CONGESTION,
			uintptr(unsafe.Pointer(&name[0])), uintptr(unsafe.Pointer(&n)), 0)
	})
	if errno != 0 {
		t.Fatalf("getsockopt(TCP_CONGESTION): %v", errno)
	}
	s := string(name[:n])
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			return s[:i]
		}
	}
	return s
}

// Both ends of a loopback connection run Reno whatever the system
// default is, so no record is ever paced (see unpaceLoopback).
func TestLoopbackTCPIsUnpaced(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cc, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	sc, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer sc.Close()
	for side, c := range map[string]Conn{"dialed": cc, "accepted": sc} {
		if got := congestionControl(t, c.(*tcpConn).c); got != "reno" {
			t.Errorf("%s end: congestion control %q, want reno", side, got)
		}
	}
}
