//go:build !linux

package rt

import "net"

// unpaceLoopback is a no-op where the congestion controller is not a
// per-socket choice (see loopback_linux.go).
func unpaceLoopback(net.Conn) {}
