package rt

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Tests for server-side admission control: the weighted load gate, the
// ReplyOverloaded wire encoding across all four protocols, and the
// end-to-end overload → ErrOverloaded → retry path.

func TestAdmissionWeights(t *testing.T) {
	a := &Admission{
		MaxLoad:       10,
		Weights:       map[string]int{"heavy": 5},
		DefaultWeight: 2,
	}
	hHeavy := &ReqHeader{OpName: "heavy"}
	hOther := &ReqHeader{OpName: "light"}
	if w := a.weight(hHeavy); w != 5 {
		t.Errorf("weight(heavy) = %d, want 5", w)
	}
	if w := a.weight(hOther); w != 2 {
		t.Errorf("weight(light) = %d, want the default 2", w)
	}

	// 5 + 2 + 2 = 9 fits; one more default-weight call would hit 11.
	for _, w := range []int64{5, 2, 2} {
		if !a.tryAcquire(w) {
			t.Fatalf("tryAcquire(%d) rejected below MaxLoad", w)
		}
	}
	if a.tryAcquire(2) {
		t.Error("tryAcquire(2) admitted past MaxLoad")
	}
	if got := a.Load(); got != 9 {
		t.Errorf("Load = %d, want 9 (failed acquire must undo itself)", got)
	}
	a.release(5)
	if !a.tryAcquire(2) {
		t.Error("tryAcquire(2) rejected after release freed capacity")
	}
	a.release(2)
	a.release(2)
	a.release(2)
	if got := a.Load(); got != 0 {
		t.Errorf("Load = %d after symmetric releases, want 0", got)
	}
}

func TestReplyOverloadedRoundTrip(t *testing.T) {
	for _, p := range []Protocol{ONC{}, GIOP{}, GIOP{Little: true}, Mach{}, Fluke{}} {
		var e Encoder
		p.WriteReply(&e, &RepHeader{XID: 99, Status: ReplyOverloaded})
		h, err := p.ReadReply(NewDecoder(e.Bytes()))
		if err != nil {
			t.Errorf("%s: ReadReply: %v", p.Name(), err)
			continue
		}
		if h.XID != 99 || h.Status != ReplyOverloaded {
			t.Errorf("%s: got XID=%d Status=%d, want 99/ReplyOverloaded", p.Name(), h.XID, h.Status)
		}
	}
}

// startAdmissionServer serves a blockable echo behind an Admission gate.
func startAdmissionServer(t *testing.T, adm *Admission, block chan struct{}) (Conn, *Metrics) {
	t.Helper()
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 4
	s.Metrics = NewMetrics()
	s.Admission = adm
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		h.OpName = "double"
		if block != nil {
			<-block
		}
		if !d.Ensure(4) {
			return d.Err()
		}
		e.PutU32BEC(2 * d.U32BE())
		return nil
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })
	return clientEnd, s.Metrics
}

// TestAdmissionFastReject: with capacity exhausted by parked calls, the
// next call is shed from the decode loop with ErrOverloaded — and the
// client's breaker stays healthy, because the server answered.
func TestAdmissionFastReject(t *testing.T) {
	adm := &Admission{MaxLoad: 2}
	block := make(chan struct{})
	conn, sm := startAdmissionServer(t, adm, block)

	c := newEchoClient(conn)
	c.Breaker = &Breaker{Threshold: 1} // any transport failure would open it

	// Park two calls inside the handlers to pin the load at MaxLoad.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(21) })
			if err != nil {
				t.Errorf("parked call failed: %v", err)
				return
			}
			d.Release()
		}()
	}
	// Wait until both calls occupy the gate.
	for deadline := time.Now().Add(2 * time.Second); adm.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("handlers never occupied the admission gate")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(1) })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded call returned %v, want ErrOverloaded", err)
	}
	if got := c.Breaker.State(); got != BreakerClosed {
		t.Errorf("breaker %v after overload reply, want closed (transport is healthy)", got)
	}
	if sm.AdmissionRejects.Load() == 0 {
		t.Error("AdmissionRejects not counted")
	}

	close(block) // drain the parked calls
	wg.Wait()

	// Capacity released at dispatch completion: the next call is admitted.
	for deadline := time.Now().Add(2 * time.Second); ; {
		d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(3) })
		if err == nil {
			if d.Ensure(4) && d.U32BE() != 6 {
				t.Error("wrong answer after recovery")
			}
			d.Release()
			break
		}
		if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
			t.Fatalf("post-recovery call: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionRetryRecovers: a Retry policy turns transient overload
// into backoff-and-succeed, even for non-idempotent calls (the server
// provably did not execute a shed request).
func TestAdmissionRetryRecovers(t *testing.T) {
	adm := &Admission{MaxLoad: 1}
	block := make(chan struct{})
	conn, _ := startAdmissionServer(t, adm, block)

	c := newEchoClient(conn)
	c.Retry = &RetryPolicy{MaxAttempts: 50, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Seed: 1}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(2) })
		if err != nil {
			t.Errorf("parked call: %v", err)
			return
		}
		d.Release()
	}()
	for deadline := time.Now().Add(2 * time.Second); adm.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("handler never occupied the gate")
		}
		time.Sleep(time.Millisecond)
	}
	// Unblock the parked call shortly; the non-idempotent retry loop
	// must ride out the overload window and then succeed.
	time.AfterFunc(20*time.Millisecond, func() { close(block) })
	d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(5) })
	if err != nil {
		t.Fatalf("call through transient overload: %v", err)
	}
	if d.Ensure(4) && d.U32BE() != 10 {
		t.Error("wrong answer")
	}
	d.Release()
	wg.Wait()
}

// TestAdmissionOnewayShedSilently: a shed oneway request gets no
// overload reply (nothing is waiting), only the metric.
func TestAdmissionOnewayShedSilently(t *testing.T) {
	adm := &Admission{MaxLoad: 1}
	block := make(chan struct{})
	conn, sm := startAdmissionServer(t, adm, block)
	defer close(block)

	c := newEchoClient(conn)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(2) })
		if err == nil {
			d.Release()
		}
	}()
	for deadline := time.Now().Add(2 * time.Second); adm.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("handler never occupied the gate")
		}
		time.Sleep(time.Millisecond)
	}
	before := sm.AdmissionRejects.Load()
	if _, err := c.Call(3, "note", true, func(e *Encoder) {}); err != nil {
		t.Fatalf("oneway send: %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); sm.AdmissionRejects.Load() == before; {
		if time.Now().After(deadline) {
			t.Fatal("oneway shed not counted")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
}

// TestAdmissionShedAllocs: shedding is meant to be cheap precisely when
// the server is busiest, so a call refused by admission control costs
// no more allocations than one the server accepts and dispatches. The
// refusal's reply header goes out without escaping to the heap.
func TestAdmissionShedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	cliEnd, srvEnd := Pipe()
	s := NewServer(ONC{})
	// Procedure 9 weighs more than the whole capacity: always shed.
	s.Admission = &Admission{MaxLoad: 1, Weights: map[string]int{"proc-9": 2}}
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(srvEnd) }()
	t.Cleanup(func() { cliEnd.Close(); <-done })
	c := newEchoClient(cliEnd)
	marshal := func(e *Encoder) { e.PutU32BEC(4) }
	call := func(proc uint32, want error) func() {
		return func() {
			d, err := c.Call(proc, "double", false, marshal)
			if !errors.Is(err, want) {
				t.Fatalf("proc %d: err = %v, want %v", proc, err, want)
			}
			if d != nil {
				d.Release()
			}
		}
	}
	accepted := testing.AllocsPerRun(300, call(1, nil))
	shed := testing.AllocsPerRun(300, call(9, ErrOverloaded))
	t.Logf("accepted %.2f allocs/op, shed %.2f", accepted, shed)
	if shed > accepted {
		t.Errorf("a shed call allocates %.2f/op, an accepted one %.2f/op", shed, accepted)
	}
}
