// Frame integrity: a Conn wrapper that detects damaged messages.
//
// A bit flip inside an RPC payload can decode into a perfectly valid —
// and perfectly wrong — value; no amount of header checking catches it.
// ChecksumConn models the link-layer integrity a real transport
// provides (UDP/TCP checksums, Ethernet CRC): every outbound frame
// carries a CRC32-C trailer and every inbound frame is verified and
// stripped. A frame that fails verification is *dropped silently*, the
// way a NIC discards a damaged packet, so corruption and truncation
// degrade into loss — which the retry layer already handles. Stacked
// outside a FaultConn this turns "the wire lies" into "the wire loses",
// and lets the chaos harness assert zero payload mismatches honestly.
package rt

import (
	"encoding/binary"
	"hash/crc32"
	"sync/atomic"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ChecksumConn adds and verifies a CRC32-C trailer on every frame.
type ChecksumConn struct {
	inner Conn
	// Rejected counts inbound frames dropped for a bad or missing
	// checksum (damaged in flight).
	Rejected atomic.Uint64
}

// WrapChecksum wraps a connection with per-frame CRC32-C integrity.
// Both ends must be wrapped.
func WrapChecksum(inner Conn) *ChecksumConn {
	return &ChecksumConn{inner: inner}
}

// Send transmits msg followed by its 4-byte CRC32-C. The frame is
// staged in a receive-arena buffer that goes home when the inner Send
// returns, so a steady-state Send allocates nothing.
func (c *ChecksumConn) Send(msg []byte) error {
	stage := getLease(len(msg) + 4)
	out := stage.buf
	copy(out, msg)
	binary.BigEndian.PutUint32(out[len(msg):], crc32.Checksum(msg, crcTable))
	err := c.inner.Send(out)
	stage.Release()
	return err
}

// Recv returns the next frame whose trailer verifies, stripped of the
// trailer. Damaged frames are counted in Rejected and skipped.
func (c *ChecksumConn) Recv() ([]byte, error) { return recvEscaped(c) }

// RecvLease is Recv forwarding the inner conn's lease (see
// LeaseReceiver); a rejected frame's buffer goes straight home.
func (c *ChecksumConn) RecvLease() ([]byte, *Lease, error) {
	for {
		msg, lease, err := RecvLease(c.inner)
		if err != nil {
			return nil, nil, err
		}
		if len(msg) >= 4 {
			body := msg[:len(msg)-4]
			want := binary.BigEndian.Uint32(msg[len(msg)-4:])
			if crc32.Checksum(body, crcTable) == want {
				return body, lease, nil
			}
		}
		c.Rejected.Add(1)
		lease.Release()
	}
}

// Close closes the underlying connection.
func (c *ChecksumConn) Close() error { return c.inner.Close() }
