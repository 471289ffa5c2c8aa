package rt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- histogram --------------------------------------------------------------

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1 << 38, 39},
		{1 << 50, NumLatencyBuckets - 1}, // clamp
		{^uint64(0), NumLatencyBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestBucketUpper(t *testing.T) {
	// Every value must fall strictly below its bucket's upper edge.
	for _, ns := range []uint64{1, 2, 3, 100, 1023, 1024, 1 << 20} {
		up := BucketUpper(bucketIndex(ns))
		if time.Duration(ns) >= up {
			t.Errorf("ns=%d not below bucket upper %d", ns, up)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond) // bucket 7 (64..127)
	h.Observe(100 * time.Nanosecond)
	h.Observe(5 * time.Microsecond) // 5000ns, bucket 13
	h.Observe(-time.Second)         // clamped to 0, bucket 0

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.SumNs != 100+100+5000+0 {
		t.Errorf("sum = %d", s.SumNs)
	}
	if s.MaxNs != 5000 {
		t.Errorf("max = %d", s.MaxNs)
	}
	if s.Buckets[7] != 2 || s.Buckets[13] != 1 || s.Buckets[0] != 1 {
		t.Errorf("buckets = %v", s.Buckets[:16])
	}
	if s.Mean() != time.Duration(5200/4) {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	// 90 fast observations (100ns, bucket 7) and 10 slow (1ms, bucket 20).
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != BucketUpper(7) {
		t.Errorf("p50 = %v, want %v", got, BucketUpper(7))
	}
	if got := s.Quantile(0.90); got != BucketUpper(7) {
		t.Errorf("p90 = %v, want %v (rank 90 is the last fast observation)", got, BucketUpper(7))
	}
	if got := s.Quantile(0.99); got != BucketUpper(20) {
		t.Errorf("p99 = %v, want %v", got, BucketUpper(20))
	}
	if got := s.Quantile(1); got != BucketUpper(20) {
		t.Errorf("p100 = %v, want %v", got, BucketUpper(20))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	if s.MaxNs != 7*1000+999 {
		t.Errorf("max = %d", s.MaxNs)
	}
	var inBuckets uint64
	for _, b := range s.Buckets {
		inBuckets += b
	}
	if inBuckets != s.Count {
		t.Errorf("bucket total %d != count %d", inBuckets, s.Count)
	}
}

// --- metrics registry -------------------------------------------------------

func TestMetricsConcurrentOps(t *testing.T) {
	m := NewMetrics()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				op := m.Op("op-" + string(rune('a'+i%3)))
				op.Calls.Add(1)
				op.ReqBytes.Add(10)
				op.Latency.Observe(time.Microsecond)
				m.Conns.Add(1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if len(s.Ops) != 3 {
		t.Fatalf("ops = %d", len(s.Ops))
	}
	var calls, req uint64
	for _, op := range s.Ops {
		calls += op.Calls
		req += op.ReqBytes
		if op.Latency.Count != op.Calls {
			t.Errorf("op %s latency count %d != calls %d", op.Op, op.Latency.Count, op.Calls)
		}
	}
	if calls != workers*per || req != workers*per*10 {
		t.Errorf("calls=%d req=%d", calls, req)
	}
	if s.Conns != workers*per {
		t.Errorf("conns = %d", s.Conns)
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	m := NewMetrics()
	op := m.Op("ping")
	op.Calls.Add(3)
	op.Errors.Add(1)
	op.Latency.Observe(time.Millisecond)
	m.BadHeaders.Add(2)

	s := m.Snapshot()
	text := s.String()
	for _, want := range []string{
		"flick_bad_headers 2\n",
		`flick_op_calls{op="ping"} 3` + "\n",
		`flick_op_errors{op="ping"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.BadHeaders != 2 || len(back.Ops) != 1 || back.Ops[0].Calls != 3 {
		t.Errorf("JSON round trip = %+v", back)
	}

	// WriteTo returns the byte count it wrote.
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Errorf("WriteTo = %d, %v; buffer %d", n, err, buf.Len())
	}
}

// pinnedMetrics returns a registry whose every counter and gauge holds a
// distinct multiple of k (the i-th counter of the text exposition holds
// k*i), with one operation observed k times.
func pinnedMetrics(k uint64) *Metrics {
	m := NewMetrics()
	for i, c := range []*atomic.Uint64{
		&m.Conns, &m.ConnErrors, &m.BadHeaders, &m.BadXIDs, &m.StaleReplies, &m.DispatchErrors, &m.Oneways,
		&m.Retries, &m.Reconnects, &m.BreakerOpen, &m.BreakerRejects,
		&m.PanicsRecovered, &m.DroppedDupes, &m.IdleReaped, &m.Oversized,
		&m.BatchedCalls, &m.BatchFrames, &m.BatchFlushSize, &m.BatchFlushIdle,
		&m.BatchFlushDeadline, &m.BatchFlushClose, &m.AdmissionRejects, &m.SessionFailovers,
		&m.HedgedCalls, &m.HedgeWins, &m.CancelsSent, &m.GoAways,
		&m.ExpiredRejects, &m.CanceledCalls, &m.DrainRejects,
		&m.EncGrowChecks, &m.EncGrowAllocs, &m.DecEnsureChecks, &m.DecFailures,
	} {
		c.Store(k * uint64(i+1))
	}
	m.InFlight.Store(-35 * int64(k))
	m.QueueDepth.Store(36 * int64(k))
	op := m.Op("ping")
	op.Calls.Store(37 * k)
	op.Errors.Store(38 * k)
	op.ReqBytes.Store(39 * k)
	op.RepBytes.Store(40 * k)
	for i := uint64(0); i < k; i++ {
		op.Latency.Observe(time.Millisecond)
	}
	return m
}

// TestExpositionPinned pins which field every exposed name reads, in
// what order: the text and JSON renderings byte for byte, and Sub field
// by field (later values are three times the earlier ones, so every
// delta is twice the earlier value, gauges included).
func TestExpositionPinned(t *testing.T) {
	s := pinnedMetrics(1).Snapshot()
	const wantText = `flick_conns 1
flick_conn_errors 2
flick_bad_headers 3
flick_bad_xids 4
flick_stale_replies 5
flick_dispatch_errors 6
flick_oneways 7
flick_retries 8
flick_reconnects 9
flick_breaker_open 10
flick_breaker_rejects 11
flick_panics_recovered 12
flick_dropped_dupes 13
flick_idle_reaped 14
flick_oversized 15
flick_batched_calls 16
flick_batch_frames 17
flick_batch_flush_size 18
flick_batch_flush_idle 19
flick_batch_flush_deadline 20
flick_batch_flush_close 21
flick_admission_rejects 22
flick_session_failovers 23
flick_hedged_calls 24
flick_hedge_wins 25
flick_cancels_sent 26
flick_goaways 27
flick_expired_rejects 28
flick_canceled_calls 29
flick_drain_rejects 30
flick_enc_grow_checks 31
flick_enc_grow_allocs 32
flick_dec_ensure_checks 33
flick_dec_failures 34
flick_in_flight -35
flick_queue_depth 36
flick_op_calls{op="ping"} 37
flick_op_errors{op="ping"} 38
flick_op_req_bytes{op="ping"} 39
flick_op_rep_bytes{op="ping"} 40
flick_op_latency_mean_ns{op="ping"} 1000000
flick_op_latency_p50_ns{op="ping"} 1048576
flick_op_latency_p90_ns{op="ping"} 1048576
flick_op_latency_p99_ns{op="ping"} 1048576
flick_op_latency_max_ns{op="ping"} 1000000
`
	if got := s.String(); got != wantText {
		t.Errorf("text exposition:\n%s\nwant:\n%s", got, wantText)
	}

	// One observation of 1 ms lands in bucket 20 of 40.
	buckets := strings.Repeat("          0,\n", 20) + "          1,\n" + strings.Repeat("          0,\n", 18) + "          0\n"
	wantJSON := `{
  "ops": [
    {
      "op": "ping",
      "calls": 37,
      "errors": 38,
      "req_bytes": 39,
      "rep_bytes": 40,
      "latency": {
        "count": 1,
        "sum_ns": 1000000,
        "max_ns": 1000000,
        "buckets": [
` + buckets + `        ]
      },
      "mean_ns": 1000000,
      "p50_ns": 1048576,
      "p90_ns": 1048576,
      "p99_ns": 1048576,
      "max_ns": 1000000
    }
  ],
  "conns": 1,
  "conn_errors": 2,
  "bad_headers": 3,
  "bad_xids": 4,
  "stale_replies": 5,
  "dispatch_errors": 6,
  "oneways": 7,
  "in_flight": -35,
  "queue_depth": 36,
  "retries": 8,
  "reconnects": 9,
  "breaker_open": 10,
  "breaker_rejects": 11,
  "panics_recovered": 12,
  "dropped_dupes": 13,
  "idle_reaped": 14,
  "oversized": 15,
  "batched_calls": 16,
  "batch_frames": 17,
  "batch_flush_size": 18,
  "batch_flush_idle": 19,
  "batch_flush_deadline": 20,
  "batch_flush_close": 21,
  "admission_rejects": 22,
  "session_failovers": 23,
  "hedged_calls": 24,
  "hedge_wins": 25,
  "cancels_sent": 26,
  "goaways": 27,
  "expired_rejects": 28,
  "canceled_calls": 29,
  "drain_rejects": 30,
  "enc_grow_checks": 31,
  "enc_grow_allocs": 32,
  "dec_ensure_checks": 33,
  "dec_failures": 34
}`
	if got, err := s.JSON(); err != nil || string(got) != wantJSON {
		t.Errorf("JSON exposition (%v):\n%s\nwant:\n%s", err, got, wantJSON)
	}

	if got, want := pinnedMetrics(3).Snapshot().Sub(s), pinnedMetrics(2).Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("Sub:\n got %+v\nwant %+v", got, want)
	}
}

// --- encoder / decoder counters --------------------------------------------

func TestEncoderStats(t *testing.T) {
	var e Encoder
	// Counting is off by default (the disabled fast path).
	e.Grow(4)
	if s := e.Stats(); s != (EncStats{}) {
		t.Errorf("counters advanced while disabled: %+v", s)
	}
	e.EnableStats(true)
	e.Grow(4)
	e.PutU32BE(1)
	e.Grow(1 << 20) // must reallocate
	s := e.TakeStats()
	if s.GrowChecks != 2 {
		t.Errorf("grow checks = %d", s.GrowChecks)
	}
	if s.GrowAllocs == 0 || s.GrowAllocs > 2 {
		t.Errorf("grow allocs = %d", s.GrowAllocs)
	}
	if after := e.TakeStats(); after != (EncStats{}) {
		t.Errorf("TakeStats did not drain: %+v", after)
	}
}

func TestDecoderStats(t *testing.T) {
	var d Decoder
	d.Reset([]byte{0, 0, 0, 7})
	// Counting is off by default (the disabled fast path).
	d.Ensure(4)
	if s := d.Stats(); s != (DecStats{}) {
		t.Errorf("counters advanced while disabled: %+v", s)
	}
	d.EnableStats(true)
	d.Reset([]byte{0, 0, 0, 7})
	if !d.Ensure(4) {
		t.Fatal("Ensure(4) failed")
	}
	d.U32BE()
	if d.Ensure(4) { // truncated
		t.Fatal("Ensure past end succeeded")
	}
	s := d.TakeStats()
	if s.EnsureChecks != 2 {
		t.Errorf("ensure checks = %d", s.EnsureChecks)
	}
	if s.Failures != 1 {
		t.Errorf("failures = %d", s.Failures)
	}
	if after := d.TakeStats(); after != (DecStats{}) {
		t.Errorf("TakeStats did not drain: %+v", after)
	}
}

// --- end-to-end loopback ----------------------------------------------------

// echoDispatch implements a tiny protocol: proc 1 doubles a u32, proc 2
// always fails, proc 3 is oneway.
func echoDispatch(h *ReqHeader, d *Decoder, e *Encoder) error {
	switch h.Proc {
	case 1:
		h.OpName = "double"
		if !d.Ensure(4) {
			return d.Err()
		}
		v := d.U32BE()
		e.PutU32BEC(2 * v)
		return nil
	case 2:
		h.OpName = "fail"
		return errors.New("work failed")
	case 3:
		h.OpName = "note"
		h.OneWay = true
		return nil
	}
	return ErrNoSuchOp
}

func startObservedServer(t *testing.T) (Conn, *Metrics, chan struct{}) {
	t.Helper()
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Metrics = NewMetrics()
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })
	return clientEnd, s.Metrics, done
}

func TestLoopbackMetricsE2E(t *testing.T) {
	conn, sm, done := startObservedServer(t)

	c := NewClient(conn, ONC{})
	c.Prog, c.Vers = 7, 1
	cm := NewMetrics()
	c.Metrics = cm

	// Three successful calls.
	for i := uint32(1); i <= 3; i++ {
		d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(i) })
		if err != nil {
			t.Fatal(err)
		}
		if !d.Ensure(4) {
			t.Fatal(d.Err())
		}
		if got := d.U32BE(); got != 2*i {
			t.Errorf("double(%d) = %d", i, got)
		}
		d.Release()
	}
	// One failing call (server work error -> system error reply).
	if _, err := c.Call(2, "fail", false, func(e *Encoder) {}); !errors.Is(err, ErrSystem) {
		t.Errorf("fail call err = %v", err)
	}
	// One oneway.
	if _, err := c.Call(3, "note", true, func(e *Encoder) {}); err != nil {
		t.Fatal(err)
	}
	// Follow with a two-way call so the oneway is surely dispatched.
	if _, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(9) }); err != nil {
		t.Fatal(err)
	}

	cs := cm.Snapshot()
	if got := findOp(t, cs, "double").Calls; got != 4 {
		t.Errorf("client double calls = %d", got)
	}
	if op := findOp(t, cs, "fail"); op.Calls != 1 || op.Errors != 1 {
		t.Errorf("client fail op = %+v", op)
	}
	if cs.Oneways != 1 {
		t.Errorf("client oneways = %d", cs.Oneways)
	}
	if cs.EncGrowChecks == 0 || cs.DecEnsureChecks == 0 {
		t.Errorf("client enc/dec counters not folded: %+v", cs)
	}
	for _, op := range cs.Ops {
		if op.Calls != op.Latency.Count {
			t.Errorf("op %s: calls %d != latency count %d", op.Op, op.Calls, op.Latency.Count)
		}
		if op.Calls > 0 && op.ReqBytes == 0 {
			t.Errorf("op %s: no request bytes recorded", op.Op)
		}
	}

	// Close the connection and wait for the server loop to exit: every
	// finishRequest has then run.
	conn.Close()
	<-done

	ss := sm.Snapshot()
	if ss.Conns != 1 {
		t.Errorf("server conns = %d", ss.Conns)
	}
	if op := findOp(t, ss, "double"); op.Calls != 4 || op.RepBytes == 0 {
		t.Errorf("server double op = %+v", op)
	}
	if op := findOp(t, ss, "fail"); op.Errors != 1 {
		t.Errorf("server fail op = %+v", op)
	}
	if op := findOp(t, ss, "note"); op.Calls != 1 || op.RepBytes != 0 {
		t.Errorf("server note op = %+v", op)
	}
	if ss.DispatchErrors != 1 || ss.Oneways != 1 {
		t.Errorf("server globals = %+v", ss)
	}
}

func findOp(t *testing.T, s Snapshot, name string) OpSnapshot {
	t.Helper()
	for _, op := range s.Ops {
		if op.Op == name {
			return op
		}
	}
	t.Fatalf("op %q not in snapshot (have %v)", name, opNames(s))
	return OpSnapshot{}
}

func opNames(s Snapshot) []string {
	var out []string
	for _, op := range s.Ops {
		out = append(out, op.Op)
	}
	return out
}

// --- dropped requests and desynchronized replies ---------------------------

func TestBadHeaderDropCounted(t *testing.T) {
	conn, sm, _ := startObservedServer(t)

	// Garbage: too short to be an ONC call header. The server must drop
	// it, count it, and keep serving.
	if err := conn.Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, ONC{})
	c.Prog, c.Vers = 7, 1
	d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(21) })
	if err != nil {
		t.Fatal(err)
	}
	if !d.Ensure(4) || d.U32BE() != 42 {
		t.Errorf("call after dropped garbage failed")
	}
	d.Release()
	if got := sm.BadHeaders.Load(); got != 1 {
		t.Errorf("bad headers = %d", got)
	}
}

// xidCorruptor flips the reply xid (first four bytes of an ONC reply).
type xidCorruptor struct{ Conn }

func (c *xidCorruptor) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil && len(msg) >= 4 {
		x := binary.BigEndian.Uint32(msg)
		binary.BigEndian.PutUint32(msg, x^0xdeadbeef)
	}
	return msg, err
}

func TestBadXIDCounted(t *testing.T) {
	conn, _, _ := startObservedServer(t)

	c := NewClient(&xidCorruptor{conn}, ONC{})
	c.Prog, c.Vers = 7, 1
	cm := NewMetrics()
	c.Metrics = cm

	_, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(1) })
	if !errors.Is(err, ErrBadXID) {
		t.Fatalf("err = %v, want ErrBadXID", err)
	}
	if got := cm.BadXIDs.Load(); got != 1 {
		t.Errorf("bad xids = %d", got)
	}
	if op := findOp(t, cm.Snapshot(), "double"); op.Errors != 1 {
		t.Errorf("double errors = %d", op.Errors)
	}
}

// --- Serve connection-error routing ----------------------------------------

// failConn errors on the first Recv with a non-EOF failure.
type failConn struct{ recvErr error }

func (c *failConn) Send([]byte) error     { return nil }
func (c *failConn) Recv() ([]byte, error) { return nil, c.recvErr }
func (c *failConn) Close() error          { return nil }

// oneShotListener yields one connection, then blocks until closed.
type oneShotListener struct {
	conn Conn
	once sync.Once
	ch   chan Conn
}

func newOneShotListener(c Conn) *oneShotListener {
	l := &oneShotListener{conn: c, ch: make(chan Conn, 1)}
	l.ch <- c
	return l
}

func (l *oneShotListener) Accept() (Conn, error) {
	c, ok := <-l.ch
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}
func (l *oneShotListener) Close() error { l.once.Do(func() { close(l.ch) }); return nil }
func (l *oneShotListener) Addr() string { return "test" }

func TestServeRoutesConnErrors(t *testing.T) {
	s := NewServer(ONC{})
	s.Metrics = NewMetrics()
	s.Tracer = &Tracer{SampleRate: 1, Seed: 3}

	l := newOneShotListener(&failConn{recvErr: errors.New("wire torn")})
	go func() {
		time.Sleep(5 * time.Millisecond)
		l.Close()
	}()
	if err := s.Serve(l); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve = %v", err)
	}
	// Give the per-connection goroutine time to record the failure.
	deadline := time.Now().Add(time.Second)
	for (s.Metrics.ConnErrors.Load() == 0 || s.Tracer.Recorded() == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Metrics.ConnErrors.Load(); got != 1 {
		t.Fatalf("conn errors = %d", got)
	}
	spans := s.Tracer.Spans()
	if len(spans) != 1 || spans[0].Op != "conn-error" || !strings.Contains(spans[0].Err, "wire torn") {
		t.Errorf("connection failure not recorded as one error span: %+v", spans)
	}
}

// --- spans on the plain call path --------------------------------------------

// TestClientCallSpans is the span-era form of the old per-call trace
// event: one sampled call yields a call span, one attempt span inside
// it carrying the wire XID, and the server's dispatch span parented to
// that attempt; the byte sizes the event carried live in Metrics.
func TestClientCallSpans(t *testing.T) {
	tr := &Tracer{SampleRate: 1, Seed: 11}
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Tracer = tr
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	c := newEchoClient(clientEnd)
	c.Metrics = NewMetrics()
	c.Tracer = tr
	d, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(5) })
	if err != nil {
		t.Fatal(err)
	}
	d.Release()

	byKind := map[SpanKind]*Span{}
	for _, sp := range tr.Spans() {
		if byKind[sp.Kind] != nil {
			t.Fatalf("two %v spans for one call", sp.Kind)
		}
		byKind[sp.Kind] = sp
	}
	call, attempt, dispatch := byKind[SpanClientCall], byKind[SpanAttempt], byKind[SpanServerDispatch]
	if call == nil || attempt == nil || dispatch == nil {
		t.Fatalf("spans = %+v, want call, attempt and dispatch", tr.Spans())
	}
	if call.Op != "double" || call.Parent != 0 || call.Err != "" {
		t.Errorf("call span = %+v", call)
	}
	if attempt.Parent != call.ID || attempt.Trace != call.Trace || attempt.XID == 0 {
		t.Errorf("attempt span = %+v, want a child of %x with the wire XID", attempt, call.ID)
	}
	if dispatch.Parent != attempt.ID || dispatch.XID != attempt.XID {
		t.Errorf("dispatch span = %+v, want a child of attempt %x, xid %d", dispatch, attempt.ID, attempt.XID)
	}
	if attempt.Start.Before(call.Start) || attempt.Start.Add(attempt.Dur).After(call.Start.Add(call.Dur)) {
		t.Errorf("attempt [%v +%v] not inside call [%v +%v]", attempt.Start, attempt.Dur, call.Start, call.Dur)
	}
	if op := c.Metrics.Op("double"); op.ReqBytes.Load() == 0 || op.RepBytes.Load() == 0 {
		t.Errorf("byte sizes missing: req %d rep %d", op.ReqBytes.Load(), op.RepBytes.Load())
	}
}

// --- zero-cost disabled path ------------------------------------------------

// TestCallAllocsUnchanged guards the fast path: with observability
// disabled, a loopback Call must not allocate more than the seed's
// baseline (5 allocs: pipe message + decoder bookkeeping).
func TestCallAllocsUnchanged(t *testing.T) {
	conn, _, _ := startObservedServer(t)
	c := NewClient(conn, ONC{})
	c.Prog, c.Vers = 7, 1
	marshal := func(e *Encoder) { e.PutU32BEC(4) }
	avg := testing.AllocsPerRun(200, func() {
		if _, err := c.Call(1, "double", false, marshal); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5 {
		t.Errorf("Call allocates %.1f/op with observability disabled (budget 5)", avg)
	}
}

func TestObservePathAllocs(t *testing.T) {
	var h Histogram
	if avg := testing.AllocsPerRun(100, func() { h.Observe(time.Microsecond) }); avg != 0 {
		t.Errorf("Observe allocates %.1f/op", avg)
	}
	m := NewMetrics()
	m.Op("warm") // pre-register so the steady state is measured
	if avg := testing.AllocsPerRun(100, func() { m.Op("warm").Calls.Add(1) }); avg != 0 {
		t.Errorf("Op+Add allocates %.1f/op", avg)
	}
	var e Encoder
	e.Grow(1 << 12)
	e.Reset()
	if avg := testing.AllocsPerRun(100, func() { e.Reset(); e.Grow(64) }); avg != 0 {
		t.Errorf("Grow allocates %.1f/op after warmup", avg)
	}
}

// --- benchmarks -------------------------------------------------------------

func benchClient(b *testing.B, metrics *Metrics, tracer *Tracer) {
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Register(7, 1, echoDispatch)
	go s.ServeConn(serverEnd)
	b.Cleanup(func() { clientEnd.Close() })

	c := NewClient(clientEnd, ONC{})
	c.Prog, c.Vers = 7, 1
	c.Metrics = metrics
	c.Tracer = tracer
	marshal := func(e *Encoder) { e.PutU32BEC(4) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(1, "double", false, marshal); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientCall(b *testing.B)        { benchClient(b, nil, nil) }
func BenchmarkClientCallMetrics(b *testing.B) { benchClient(b, NewMetrics(), nil) }
func BenchmarkClientCallTraced(b *testing.B) {
	benchClient(b, NewMetrics(), &Tracer{SampleRate: 1})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkSnapshotWrite(b *testing.B) {
	m := NewMetrics()
	for i := 0; i < 8; i++ {
		op := m.Op(fmt.Sprintf("op-%d", i))
		op.Calls.Add(uint64(i))
		op.Latency.Observe(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Snapshot().WriteTo(io.Discard)
	}
}
