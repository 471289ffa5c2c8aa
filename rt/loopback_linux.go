package rt

import (
	"net"
	"syscall"
)

// unpaceLoopback moves a loopback TCP connection to the kernel's
// built-in Reno congestion control, best effort. There is no path to
// congest between two sockets of one host, but a pacing controller
// (BBR, many distributions' default) still rate-limits each record to
// its bandwidth estimate, and on a request/reply flow — app-limited
// bursts with idle gaps — that estimate is whatever the connection's
// first exchanges happened to measure. When it settles below what the
// loopback copy sustains, every bulk record leaves in timer-released
// slices and the connection stays ~20 % slower for its lifetime; when
// it settles above, nothing is paced. Which one a connection gets is a
// coin toss per dial (DESIGN.md §8 has the counters). Reno never paces,
// is compiled into every Linux kernel and is open to unprivileged
// processes, so the choice needs no configuration and no fallback;
// connections that leave the host keep the system's controller.
func unpaceLoopback(c net.Conn) {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return
	}
	if ra, ok := tc.RemoteAddr().(*net.TCPAddr); !ok || !ra.IP.IsLoopback() {
		return
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return
	}
	rc.Control(func(fd uintptr) {
		syscall.SetsockoptString(int(fd), syscall.IPPROTO_TCP, syscall.TCP_CONGESTION, "reno")
	})
}
