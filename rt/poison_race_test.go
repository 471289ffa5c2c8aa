//go:build race

package rt

import (
	"bytes"
	"testing"
	"time"
)

// TestRetainedViewReadsPoison: a handler that keeps its aliased
// argument past its return — past the skeleton's EndBorrow — is the one
// mistake pinning no longer absorbs: the buffer recycles under the view.
// Race builds poison a buffer before it re-enters its pool, so the
// retained view reads 0xDB instead of the next message's bytes, and a
// test that compares bytes fails loudly.
func TestRetainedViewReadsPoison(t *testing.T) {
	var retained []byte
	cliEnd, srvEnd := Pipe()
	s := NewServer(ONC{})
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		h.OpName = "put"
		n, ok := d.Len(BE, 0, false, 1)
		if !ok || !d.Ensure(n) {
			return d.Err()
		}
		retained = d.AliasNext(n) // the bug under test: no copy
		e.PutU32BEC(uint32(n))
		d.EndBorrow()
		return nil
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(srvEnd) }()
	defer func() { cliEnd.Close(); <-done }()

	payload := bytes.Repeat([]byte{0x5A}, 1024)
	before := arenaBaseline()
	c := newEchoClient(cliEnd)
	d, err := c.Call(1, "put", false, func(e *Encoder) {
		e.PutU32BEC(uint32(len(payload)))
		e.Grow(len(payload))
		e.PutBytes(payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	// Request and reply buffers both go home (the counters are atomics:
	// observing the put orders this read after the poisoning write).
	for deadline := time.Now().Add(2 * time.Second); ReadZeroCopyStats().Sub(before).ArenaPuts < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the request buffer was never recycled")
		}
	}
	if !bytes.Equal(retained, bytes.Repeat([]byte{poisonByte}, len(payload))) {
		t.Errorf("the retained view reads % x..., want poison (%#x)", retained[:8], poisonByte)
	}
}
