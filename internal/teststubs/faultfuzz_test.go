package teststubs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flick/rt"
)

// FuzzFaultedRoundTrip drives a real generated-stub round trip while the
// fuzz input scripts frame damage in flight: bit flips, truncations,
// zeroed bytes, and whole-frame drops, in both directions, applied
// *inside* the CRC32-C integrity layer exactly where a hostile link
// would strike. The contract under any damage script: the caller gets
// either the exact correct answer or an error classified by the retry
// taxonomy — never a bogus decoded value, never a panic — and the
// pooled buffers all come home.
//
//	go test -fuzz=FuzzFaultedRoundTrip -fuzztime=30s ./internal/teststubs

// frameMutator wraps a Conn and damages frames per a byte script. Each
// message in either direction consumes two script bytes choosing one
// mutation; when the script runs dry, frames pass through untouched so
// every fuzz input terminates with clean calls.
type frameMutator struct {
	inner rt.Conn
	mu    sync.Mutex
	data  []byte
}

func (m *frameMutator) step() (a, b byte, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.data) < 2 {
		return 0, 0, false
	}
	a, b = m.data[0], m.data[1]
	m.data = m.data[2:]
	return a, b, true
}

// mangle returns the (possibly damaged) frame and whether to deliver it
// at all. It never mutates msg in place: the caller may own a pooled
// buffer.
func (m *frameMutator) mangle(msg []byte) ([]byte, bool) {
	a, b, ok := m.step()
	if !ok || len(msg) == 0 {
		return msg, true
	}
	switch a % 4 {
	case 0: // drop the frame
		return nil, false
	case 1: // flip one bit
		out := append([]byte(nil), msg...)
		bit := (int(a)<<8 | int(b)) % (len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
		return out, true
	case 2: // truncate
		return append([]byte(nil), msg[:int(b)%len(msg)]...), true
	default: // zero one byte
		out := append([]byte(nil), msg...)
		out[int(b)%len(out)] = 0
		return out, true
	}
}

func (m *frameMutator) Send(msg []byte) error {
	out, deliver := m.mangle(msg)
	if !deliver {
		return nil
	}
	return m.inner.Send(out)
}

func (m *frameMutator) Recv() ([]byte, error) {
	for {
		msg, err := m.inner.Recv()
		if err != nil {
			return nil, err
		}
		out, deliver := m.mangle(msg)
		if deliver {
			return out, nil
		}
	}
}

func (m *frameMutator) Close() error { return m.inner.Close() }

func FuzzFaultedRoundTrip(f *testing.F) {
	f.Add([]byte(nil))                                // clean wire
	f.Add([]byte{0, 0})                               // drop the first request
	f.Add([]byte{1, 0x55, 1, 0xaa})                   // bit flips both ways
	f.Add([]byte{2, 3, 2, 40})                        // truncations
	f.Add([]byte{3, 7, 0, 0, 1, 9, 2, 5, 3, 0})       // mixed script
	f.Add([]byte{1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6}) // sustained flips

	f.Fuzz(func(t *testing.T, data []byte) {
		poolBefore := settledPoolStats() // the previous script's teardown may still be releasing
		clientPipe, serverPipe := rt.Pipe()
		mut := &frameMutator{inner: clientPipe, data: data}
		clientSide := rt.WrapChecksum(mut)
		serverSide := rt.WrapChecksum(serverPipe)

		srv := rt.NewServer(rt.ONC{})
		srv.MaxMessage = 1 << 16
		RegisterBenchXDR(srv, &benchImpl{})
		done := make(chan struct{})
		go func() { defer close(done); srv.ServeConn(serverSide) }()

		c := NewBenchXDRClient(clientSide)
		c.C.Timeout = 25 * time.Millisecond
		c.C.Retry = &rt.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 100 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			Seed:        1,
		}

		vals := []int32{3, 1, 4, 1, 5}
		const want = int32(14)
		for i := 0; i < 4; i++ {
			ret, err := c.Sum(vals)
			switch {
			case err == nil && ret != want:
				t.Fatalf("call %d: damaged frame decoded to a bogus value %d (want %d) on script %x",
					i, ret, want, data)
			case err != nil &&
				!errors.Is(err, rt.ErrRetryable) &&
				!errors.Is(err, rt.ErrNotRetryable) &&
				!errors.Is(err, rt.ErrBreakerOpen) &&
				!errors.Is(err, rt.ErrClosed):
				t.Fatalf("call %d: unclassified error %v on script %x", i, err, data)
			}
		}

		c.C.Close()
		<-done
		deadline := time.Now().Add(2 * time.Second)
		for !rt.ReadPoolStats().Sub(poolBefore).Balanced() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if d := rt.ReadPoolStats().Sub(poolBefore); !d.Balanced() {
			t.Fatalf("pooled buffers leaked on script %x: %+v", data, d)
		}
	})
}
