package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"flick/rt"
)

// Tracing is done entirely from this package: an rt.Conn wrapper at
// both ends of the connection, the harness's own dispatch function and
// handler, and closures around the generated marshal and unmarshal
// functions stamp one callRec per call. With a single caller exactly
// one call is in flight, so every stamp between a call's entry and its
// return belongs to that call and stamps pair by order.

// callRec holds one traced call's timestamps in ns since the tracer's
// base. Several goroutines (caller, client reader, server decode loop,
// server worker) each write their own fields, hence the atomics.
type callRec struct {
	entry              atomic.Int64 // caller enters rt.Client.Call
	marshal0, marshal1 atomic.Int64 // generated request marshal, inside Call
	cSend              atomic.Int64 // client conn Send entry
	sRecv              atomic.Int64 // server conn Recv return
	sUnm0, sUnm1       atomic.Int64 // generated argument unmarshal, in dispatch
	h0, h1             atomic.Int64 // harness handler
	sMar0, sMar1       atomic.Int64 // generated reply marshal, in dispatch
	sSend              atomic.Int64 // server conn Send entry
	cRecv              atomic.Int64 // client conn Recv return
	ret                atomic.Int64 // rt.Client.Call returns
	unm1               atomic.Int64 // generated reply unmarshal done (starts at ret)
	end                atomic.Int64 // decoder released, answer checked
	sends              atomic.Int64 // Send calls on either end
}

func (r *callRec) reset() { *r = callRec{} }

// A call's blocking path is cut into consecutive phases that sum to
// end − entry. The first nine are reported under phaseNames; the tail
// (decoder release and answer check in the harness) is not.
const nPhases = 10

var phaseNames = [nPhases - 1]string{
	"rt.client.pre_send_us", "stubs.marshal_us", "rt.wire.request_us", "rt.server.pre_handler_us", "handler_us",
	"rt.server.post_handler_us", "rt.wire.reply_us", "rt.client.wake_us", "stubs.unmarshal_us",
}

// phases returns the call's phases in ns, in phaseNames' order. The
// stub phases add both ends: request marshal and reply marshal,
// argument unmarshal and reply unmarshal.
func (r *callRec) phases() [nPhases]int32 {
	m := r.marshal1.Load() - r.marshal0.Load()
	sUnm := r.sUnm1.Load() - r.sUnm0.Load()
	sMar := r.sMar1.Load() - r.sMar0.Load()
	return [nPhases]int32{
		int32(r.cSend.Load() - r.entry.Load() - m),
		int32(m + sMar),
		int32(r.sRecv.Load() - r.cSend.Load()),
		int32(r.h0.Load() - r.sRecv.Load() - sUnm),
		int32(r.h1.Load() - r.h0.Load()),
		int32(r.sSend.Load() - r.h1.Load() - sMar),
		int32(r.cRecv.Load() - r.sSend.Load()),
		int32(r.ret.Load() - r.cRecv.Load()),
		int32(r.unm1.Load() - r.ret.Load() + sUnm),
		int32(r.end.Load() - r.unm1.Load()),
	}
}

// typicalPhases averages each phase over the calls whose total lies
// between the 40th and 60th percentile of all totals. Means add up
// where medians do not, and keeping to the middle fifth makes them add
// up to the median call, whatever the shape of the tails.
func typicalPhases(rows [][nPhases]int32) (mean [nPhases]float64) {
	var totals hist
	total := func(row *[nPhases]int32) (t int64) {
		for _, v := range row {
			t += int64(v)
		}
		return t
	}
	for i := range rows {
		totals.record(total(&rows[i]))
	}
	lo, hi := totals.quantile(0.40), totals.quantile(0.60)
	n := 0.0
	for i := range rows {
		if t := float64(total(&rows[i])); t >= lo && t <= hi {
			n++
			for j, v := range rows[i] {
				mean[j] += float64(v)
			}
		}
	}
	if n > 0 {
		for j := range mean {
			mean[j] /= n
		}
	}
	return mean
}

// span is one recorded interval: name, start, end, the span that
// caused it and the call it belongs to.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's base
	Parent     int   // index into the same slice, -1 for a root
	Call       int
}

// spans builds the call's span tree from its stamps, appended to dst.
func (r *callRec) spans(dst []span, call int) []span {
	root := len(dst)
	dst = append(dst, span{"call", r.entry.Load(), r.end.Load(), -1, call})
	add := func(name string, s, e int64, parent int) int {
		dst = append(dst, span{name, s, e, parent, call})
		return len(dst) - 1
	}
	add("stubs.marshal_request", r.marshal0.Load(), r.marshal1.Load(), root)
	srv := add("rt.server", r.sRecv.Load(), r.sSend.Load(), root)
	add("stubs.unmarshal_request", r.sUnm0.Load(), r.sUnm1.Load(), srv)
	add("handler", r.h0.Load(), r.h1.Load(), srv)
	add("stubs.marshal_reply", r.sMar0.Load(), r.sMar1.Load(), srv)
	add("rt.wire.request", r.cSend.Load(), r.sRecv.Load(), root)
	add("rt.wire.reply", r.sSend.Load(), r.cRecv.Load(), root)
	add("stubs.unmarshal_reply", r.ret.Load(), r.unm1.Load(), root)
	return dst
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that its direct children cover (overlapping children
// are counted once).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make([][]int, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for p, ks := range kids {
		// Children are few; insertion-sort them by start.
		for i := 1; i < len(ks); i++ {
			for j := i; j > 0 && spans[ks[j]].Start < spans[ks[j-1]].Start; j-- {
				ks[j], ks[j-1] = ks[j-1], ks[j]
			}
		}
		covered, edge := int64(0), spans[p].Start
		for _, k := range ks {
			s, e := spans[k].Start, spans[k].End
			if s < edge {
				s = edge
			}
			if e > spans[p].End {
				e = spans[p].End
			}
			if e > s {
				covered += e - s
				edge = e
			}
		}
		self[p] -= covered
	}
	return self
}

// writeChromeTrace writes spans as a Chrome trace_event file (load it
// in chrome://tracing or Perfetto). Each span carries its self time.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"call": s.Call, "parent": s.Parent, "self_us": float64(self[i]) / 1e3},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracer owns the current call's record and the transport-side
// recordings of one traced run.
type tracer struct {
	base time.Time
	cur  atomic.Pointer[callRec]
	ring [2]callRec
	// sendH holds every Send's duration once recording is on, one
	// histogram per end: each end has a single sender at a time.
	recording atomic.Bool
	sendH     [2]hist
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.cur.Store(&t.ring[0])
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens call k's record. Alternating two records keeps a late
// stamp of call k−1 (there is none on the blocking path, but a Send
// may return after its reply was consumed) away from call k's record.
func (t *tracer) begin(k uint64) *callRec {
	r := &t.ring[k&1]
	r.reset()
	t.cur.Store(r)
	r.entry.Store(t.now())
	return r
}

// spanConn stamps the current call's record at the transport seam.
// It hides the inner conn's unexported arena-ownership marker, so
// traced runs lose receive-buffer recycling; trace.overhead_pct is
// the measure of that and of the stamping itself.
type spanConn struct {
	inner  rt.Conn
	t      *tracer
	server bool
}

func (c *spanConn) stampSend() int64 {
	now := c.t.now()
	r := c.t.cur.Load()
	if c.server {
		r.sSend.CompareAndSwap(0, now)
	} else {
		r.cSend.CompareAndSwap(0, now)
	}
	r.sends.Add(1)
	return now
}

func (c *spanConn) Send(msg []byte) error {
	t0 := c.stampSend()
	err := c.inner.Send(msg)
	c.sendDone(t0)
	return err
}

func (c *spanConn) sendDone(t0 int64) {
	if !c.t.recording.Load() {
		return
	}
	end := 0
	if c.server {
		end = 1
	}
	c.t.sendH[end].record(c.t.now() - t0)
}

func (c *spanConn) Recv() ([]byte, error) {
	msg, err := c.inner.Recv()
	now := c.t.now()
	r := c.t.cur.Load()
	if c.server {
		r.sRecv.CompareAndSwap(0, now)
	} else {
		r.cRecv.CompareAndSwap(0, now)
	}
	return msg, err
}

func (c *spanConn) Close() error { return c.inner.Close() }

// spanVecConn is spanConn over a transport that can scatter/gather;
// forwarding rt.VectoredSender keeps the zero-copy send path in traced
// runs.
type spanVecConn struct{ spanConn }

func (c *spanVecConn) SendVectored(segs [][]byte) error {
	t0 := c.stampSend()
	err := c.inner.(rt.VectoredSender).SendVectored(segs)
	c.sendDone(t0)
	return err
}

func wrapSpan(inner rt.Conn, t *tracer, server bool) rt.Conn {
	sc := spanConn{inner: inner, t: t, server: server}
	if _, ok := inner.(rt.VectoredSender); ok {
		return &spanVecConn{sc}
	}
	return &sc
}

// countConn counts frame bytes through the rt.Conn seam (record marks
// and anything below the seam are not seen).
type countConn struct {
	inner     rt.Conn
	sent, got atomic.Int64
}

func (c *countConn) Send(msg []byte) error {
	c.sent.Add(int64(len(msg)))
	return c.inner.Send(msg)
}

func (c *countConn) Recv() ([]byte, error) {
	msg, err := c.inner.Recv()
	c.got.Add(int64(len(msg)))
	return msg, err
}

func (c *countConn) Close() error { return c.inner.Close() }

type countVecConn struct{ countConn }

func (c *countVecConn) SendVectored(segs [][]byte) error {
	for _, s := range segs {
		c.sent.Add(int64(len(s)))
	}
	return c.inner.(rt.VectoredSender).SendVectored(segs)
}

// wrapCount returns the counting wrapper as an rt.Conn plus its
// counters.
func wrapCount(inner rt.Conn) (rt.Conn, *countConn) {
	if _, ok := inner.(rt.VectoredSender); ok {
		c := &countVecConn{countConn{inner: inner}}
		return c, &c.countConn
	}
	c := &countConn{inner: inner}
	return c, c
}
