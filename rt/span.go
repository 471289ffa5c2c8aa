// Distributed tracing: wire-propagated trace context and the span
// recorder.
//
// Per-process counters see one process at a time; after the scale-out
// fabric a single logical call crosses a pool shard, a batch frame,
// admission control, retries, and failover, and no single-process view
// can say where the time went. This file is the causal substrate: a 128-bit trace ID plus span ID carried on the wire (see
// the trace annotation in proto.go), a Tracer that records completed
// spans into a fixed-size lock-free ring with head-based probabilistic
// sampling (errors are always recorded), and a Chrome trace_event JSON
// exporter so a chaos soak or fleet sweep drops a load-able timeline.
//
// Span taxonomy (the tree one traced call produces):
//
//	pool     ClientPool.Call, when the pool owns the root (failover
//	         events hang here)
//	└ call   one Client.Call invocation: the retry loop. Retries,
//	         redials, breaker trips, and admission rejects are
//	         cause-labeled events on this span.
//	  └ attempt   one begin+await: a fresh XID on one session. The span
//	              ID of the attempt is what travels in the wire
//	              annotation, so the server's span parents correctly.
//	    └ dispatch   the server-side decode+dispatch+reply span,
//	                 linked purely by the propagated context.
//
// Sampling is head-based: the decision is made once at the root and
// carried in the annotation's sampled flag; downstream spans inherit
// it. A call that completes with an error is recorded even when
// unsampled (with a fresh, unpropagated trace ID) so failures never
// vanish from the ring. The disabled and unsampled paths are
// allocation-free — pinned by TestTracingDisabledAllocs and TestTCPCallAllocs.
package rt

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier shared by every span of one
// logical call, across processes.
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// TraceContext is the propagated annotation: which trace a message
// belongs to, which span caused it, and whether the head sampled it.
// It is carried on the wire by the trace annotation (proto.go) and
// in-process by context.Context (ContextWithTrace).
type TraceContext struct {
	TraceID TraceID
	SpanID  uint64
	Sampled bool
}

type traceCtxKey struct{}

// ContextWithTrace returns a context carrying tc, for handlers that
// make downstream calls: pass the returned context to CallIdemCtx and
// the downstream call's spans join the same trace. A nil ctx is
// treated as context.Background (Call and CallIdem pass nil).
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts a propagated trace context, if any.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// Context returns a context for the request being dispatched: it
// carries the propagated trace annotation (if any), expires at the
// propagated deadline (if the request carried one), and — inside a
// serving connection — is canceled when the client abandons the call
// with a cancel frame or a drain deadline kills the connection's
// remaining work. Handlers pass it to downstream CallIdemCtx calls so
// traces and deadlines propagate hop by hop, and watch ctx.Done() in
// long-running work. The runtime releases the context's resources when
// the dispatch finishes; call it at most once per request and do not
// retain it past the dispatch.
func (h *ReqHeader) Context() context.Context {
	ctx := context.Background()
	if h.Traced {
		ctx = ContextWithTrace(ctx, h.Trace)
	}
	var cancel context.CancelFunc
	if h.HasDeadline {
		ctx, cancel = context.WithDeadline(ctx, h.Deadline)
	} else if h.calls != nil {
		ctx, cancel = context.WithCancel(ctx)
	}
	if cancel != nil && h.calls != nil && !h.calls.register(h.XID, cancel) {
		// A cancel frame beat the handler here (or the drain deadline
		// passed): hand out an already-canceled context.
		cancel()
	}
	return ctx
}

// SpanKind classifies a Span in the taxonomy above.
type SpanKind uint8

const (
	// SpanClientCall is one whole client invocation (the retry loop).
	SpanClientCall SpanKind = iota
	// SpanPoolCall is a ClientPool invocation: the root above the
	// per-session call spans; failover events hang here.
	SpanPoolCall
	// SpanAttempt is one call attempt (one XID on one session); its ID
	// is the one propagated in the wire annotation.
	SpanAttempt
	// SpanServerDispatch is the server-side decode+dispatch+reply unit,
	// parented by the propagated attempt span.
	SpanServerDispatch
	// SpanBatchFlush is one multi-message batch frame cut by the
	// coalescing writer, with its flush reason as an event.
	SpanBatchFlush
	// SpanConn is a connection-level failure no call can own, recorded
	// as a lone error span: a client session torn down under its calls
	// or a served connection that died (Op "conn-error"), or a request
	// dropped because its header did not parse (Op "bad-header").
	SpanConn
)

func (k SpanKind) String() string {
	switch k {
	case SpanClientCall:
		return "call"
	case SpanPoolCall:
		return "pool"
	case SpanAttempt:
		return "attempt"
	case SpanServerDispatch:
		return "dispatch"
	case SpanBatchFlush:
		return "batch-flush"
	case SpanConn:
		return "conn"
	}
	return fmt.Sprintf("SpanKind(%d)", uint8(k))
}

// SpanEvent is a cause-labeled point inside a span: a retry, a redial,
// a session failover, an admission reject, a duplicate-reply resend, a
// batch flush reason.
type SpanEvent struct {
	// Offset is the event time relative to the span's start.
	Offset time.Duration `json:"offset_ns"`
	// Cause labels why the event happened ("retry", "redial",
	// "failover", "admission-reject", "breaker-open", "breaker-reject",
	// "dup-cached-resend", "dup-inflight-drop", "flush-size",
	// "flush-idle", "flush-deadline", "flush-close").
	Cause string `json:"cause"`
	// Detail is free-form elaboration (the error, the backoff, the
	// session indices).
	Detail string `json:"detail,omitempty"`
}

// Span is one completed traced unit of work. Spans are immutable once
// recorded; readers get them by pointer from the ring and must not
// mutate them.
type Span struct {
	Trace  TraceID  `json:"trace"`
	ID     uint64   `json:"span"`
	Parent uint64   `json:"parent,omitempty"` // 0 = root
	Kind   SpanKind `json:"kind"`
	Op     string   `json:"op"`
	XID    uint32   `json:"xid,omitempty"`
	// Sess is the pool session/shard index the span ran on (0 for
	// direct clients; dispatch spans report the server's view: 0).
	Sess  int           `json:"sess"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	// Sampled is false only for always-on error spans recorded on the
	// unsampled path (their trace ID was never propagated).
	Sampled bool        `json:"sampled"`
	Err     string      `json:"err,omitempty"`
	Events  []SpanEvent `json:"events,omitempty"`
}

// DefaultSpanRing is the ring capacity when Tracer.RingSize is unset.
const DefaultSpanRing = 4096

// Tracer makes the sampling decision at the head of each call and
// records completed spans into a fixed-size lock-free ring (newest
// overwrite oldest; Dropped counts overwrites). Attach one to a
// Client, Server, ClientPool, or BatchConfig; one Tracer may be shared
// by every component of a process so a whole call tree lands in one
// ring. All methods are safe for concurrent use. A nil *Tracer
// disables tracing entirely; an attached Tracer with SampleRate 0
// records only error spans.
type Tracer struct {
	// SampleRate is the head-based probability (0..1) that a root call
	// is sampled. 0 records only error spans; 1 samples everything.
	SampleRate float64
	// RingSize is the completed-span ring capacity (default
	// DefaultSpanRing). Set before the first use.
	RingSize int
	// Seed makes span/trace IDs (and therefore the sampling decisions)
	// reproducible in tests; 0 derives a seed from the clock.
	Seed uint64

	once      sync.Once
	threshold uint64 // sample iff id-low <= threshold
	ring      []atomic.Pointer[Span]
	head      atomic.Uint64
	ctr       atomic.Uint64
	seed      uint64
}

func (t *Tracer) init() {
	t.once.Do(func() {
		n := t.RingSize
		if n <= 0 {
			n = DefaultSpanRing
		}
		t.ring = make([]atomic.Pointer[Span], n)
		switch {
		case t.SampleRate >= 1:
			t.threshold = math.MaxUint64
		case t.SampleRate <= 0:
			t.threshold = 0
		default:
			t.threshold = uint64(t.SampleRate * float64(math.MaxUint64))
		}
		t.seed = t.Seed
		if t.seed == 0 {
			t.seed = uint64(time.Now().UnixNano()) | 1
		}
	})
}

// splitmix64 is the SplitMix64 output function: a cheap, well-mixed
// bijection that turns the tracer's atomic counter into IDs without
// locks or allocation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// nextID returns a fresh nonzero span ID. Allocation-free.
func (t *Tracer) nextID() uint64 {
	t.init()
	id := splitmix64(t.seed + t.ctr.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// sampleRoot makes the head sampling decision for a new root call. It
// returns (context, true) with a fresh trace and root span ID when
// sampled, and ({}, false) — without allocating — otherwise.
func (t *Tracer) sampleRoot() (TraceContext, bool) {
	t.init()
	if t.threshold == 0 {
		return TraceContext{}, false
	}
	hi, lo := t.nextID(), t.nextID()
	if lo > t.threshold {
		return TraceContext{}, false
	}
	var tc TraceContext
	putU64(tc.TraceID[:8], hi)
	putU64(tc.TraceID[8:], lo)
	tc.SpanID = t.nextID()
	tc.Sampled = true
	return tc, true
}

// localTrace returns a fresh, unsampled trace context for spans that
// are recorded locally without wire propagation: always-on error spans
// and batch flush spans (whose frames carry many traces at once).
func (t *Tracer) localTrace() TraceContext {
	var tc TraceContext
	putU64(tc.TraceID[:8], t.nextID())
	putU64(tc.TraceID[8:], t.nextID())
	tc.SpanID = t.nextID()
	return tc
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// record stores one completed span. Lock-free: a slot index from the
// monotone head counter, then an atomic pointer store; the oldest span
// in a full ring is overwritten.
func (t *Tracer) record(sp *Span) {
	t.init()
	i := t.head.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(sp)
}

// Recorded returns the number of spans recorded since creation
// (including any that have since been overwritten).
func (t *Tracer) Recorded() uint64 {
	t.init()
	return t.head.Load()
}

// Dropped returns how many recorded spans have been overwritten by
// newer ones (0 while the ring has never wrapped).
func (t *Tracer) Dropped() uint64 {
	t.init()
	h := t.head.Load()
	if n := uint64(len(t.ring)); h > n {
		return h - n
	}
	return 0
}

// Spans returns a copy of the ring's current contents, oldest first.
// Under concurrent recording the snapshot is approximate (a slot may
// be overwritten mid-walk), which is the usual monitoring contract.
func (t *Tracer) Spans() []*Span {
	t.init()
	h := t.head.Load()
	n := uint64(len(t.ring))
	start := uint64(0)
	if h > n {
		start = h - n
	}
	out := make([]*Span, 0, h-start)
	for i := start; i < h; i++ {
		if sp := t.ring[i%n].Load(); sp != nil {
			out = append(out, sp)
		}
	}
	return out
}

// --- Chrome trace_event export ----------------------------------------------

// chromeEvent is one entry of the Chrome trace_event JSON array
// (about://tracing, Perfetto, speedscope all load it). Spans become
// "X" complete events; span events become "i" instants.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint32         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromePid maps span kinds onto process lanes: client-side spans on
// pid 1, server-side on pid 2, transport-level (batch, connection) on
// pid 3.
func chromePid(k SpanKind) int {
	switch k {
	case SpanServerDispatch:
		return 2
	case SpanBatchFlush, SpanConn:
		return 3
	}
	return 1
}

// chromeTid groups a trace's spans onto one timeline row per process
// lane. Client spans of one call nest strictly (pool ⊃ call ⊃
// attempt), so sharing a row keeps Chrome's stack discipline.
func chromeTid(sp *Span) uint32 {
	if sp.Trace.IsZero() {
		return 0
	}
	return uint32(sp.Trace[12])<<24 | uint32(sp.Trace[13])<<16 |
		uint32(sp.Trace[14])<<8 | uint32(sp.Trace[15])
}

// WriteChromeTrace writes the ring's spans as a Chrome trace_event
// JSON document ({"traceEvents": [...]}).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		ts := float64(sp.Start.UnixNano()) / 1e3
		args := map[string]any{
			"trace":   sp.Trace.String(),
			"span":    fmt.Sprintf("%016x", sp.ID),
			"sampled": sp.Sampled,
			"sess":    sp.Sess,
		}
		if sp.Parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", sp.Parent)
		}
		if sp.XID != 0 {
			args["xid"] = sp.XID
		}
		if sp.Err != "" {
			args["err"] = sp.Err
		}
		name := sp.Op
		if name == "" {
			name = sp.Kind.String()
		}
		pid, tid := chromePid(sp.Kind), chromeTid(sp)
		events = append(events, chromeEvent{
			Name: name, Cat: sp.Kind.String(), Ph: "X",
			Ts: ts, Dur: float64(sp.Dur) / 1e3, Pid: pid, Tid: tid, Args: args,
		})
		for _, ev := range sp.Events {
			events = append(events, chromeEvent{
				Name: ev.Cause, Cat: "event", Ph: "i", S: "t",
				Ts: ts + float64(ev.Offset)/1e3, Pid: pid, Tid: tid,
				Args: map[string]any{"trace": sp.Trace.String(), "detail": ev.Detail},
			})
		}
	}
	doc := struct {
		Events []chromeEvent `json:"traceEvents"`
	}{events}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// --- the client-side span builder -------------------------------------------

// callTrace is one sampled call's tracing state, hung off its call
// descriptor (callDesc.ct). It lives on the calling goroutine only (no
// locking); a nil *callTrace means the call is unsampled and every
// method is a no-op, keeping the fast path branch-only.
type callTrace struct {
	tr     *Tracer
	tc     TraceContext // this call's span: attempts parent under tc.SpanID
	parent uint64       // parent span (pool root or propagated context); 0 = root
	kind   SpanKind
	op     string
	shard  int
	begin  time.Time
	events []SpanEvent
}

// event appends a cause-labeled event. Safe on a nil receiver.
func (ct *callTrace) event(cause, detail string) {
	if ct == nil {
		return
	}
	ct.events = append(ct.events, SpanEvent{
		Offset: time.Since(ct.begin), Cause: cause, Detail: detail,
	})
}

// finish records the call span.
func (ct *callTrace) finish(err error) {
	if ct == nil {
		return
	}
	sp := &Span{
		Trace: ct.tc.TraceID, ID: ct.tc.SpanID, Parent: ct.parent,
		Kind: ct.kind, Op: ct.op, Sess: ct.shard,
		Start: ct.begin, Dur: time.Since(ct.begin),
		Sampled: true, Events: ct.events,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	ct.tr.record(sp)
}

// startCallTrace begins tracing for one call when the tracer samples
// it (or a sampled parent context mandates it); it returns nil —
// without allocating — otherwise.
func startCallTrace(tr *Tracer, ctx context.Context, kind SpanKind, op string, shard int) *callTrace {
	var parentSpan uint64
	var tc TraceContext
	if parent, ok := TraceFromContext(ctx); ok && parent.Sampled {
		// A sampled upstream span (server handler or pool root): join
		// its trace regardless of the local sampling rate.
		tc = TraceContext{TraceID: parent.TraceID, SpanID: tr.nextID(), Sampled: true}
		parentSpan = parent.SpanID
	} else {
		var sampled bool
		tc, sampled = tr.sampleRoot()
		if !sampled {
			return nil
		}
	}
	return &callTrace{
		tr: tr, tc: tc, parent: parentSpan, kind: kind, op: op,
		shard: shard, begin: time.Now(),
	}
}

// recordErrorSpan implements always-sample-on-error for unsampled
// calls: the failure is recorded as a lone root span with a fresh,
// never-propagated trace ID.
func recordErrorSpan(tr *Tracer, kind SpanKind, op string, shard int, begin time.Time, err error) {
	tc := tr.localTrace()
	tr.record(&Span{
		Trace: tc.TraceID, ID: tc.SpanID, Kind: kind, Op: op, Sess: shard,
		Start: begin, Dur: time.Since(begin), Err: err.Error(),
	})
}
