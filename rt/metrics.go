// Runtime observability: per-operation metrics for clients and servers.
//
// The paper's whole argument is quantitative — fewer buffer-space checks,
// fewer copies, cheaper dispatch — so the runtime exposes the numbers
// directly instead of leaving end-to-end wall clock as the only evidence.
// A *Metrics attached to a Client or Server collects, per operation:
// call and error counts, a lock-free log2 latency histogram, and
// request/reply byte totals; plus transport-level counters (dropped
// malformed headers, desynchronized replies, per-connection failures)
// and the Encoder/Decoder space-check counters that make the §3
// "grouped buffer management" optimization observable at runtime.
//
// Everything is sync/atomic: recording is lock-free and safe from any
// number of goroutines. A nil *Metrics disables collection entirely; the
// only cost on that path is one pointer test per call.
package rt

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NumLatencyBuckets is the fixed bucket count of latency histograms.
// Bucket i counts observations whose nanosecond value has bit length i
// (i.e. values in [2^(i-1), 2^i)), so the histogram spans 1ns to ~9min
// with no allocation and no locking.
const NumLatencyBuckets = 40

// Histogram is a lock-free fixed-bucket log2 histogram of durations.
// The zero value is ready to use.
type Histogram struct {
	buckets [NumLatencyBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
}

// bucketIndex returns the bucket for a nanosecond value.
func bucketIndex(ns uint64) int {
	i := bits.Len64(ns) // 0 only for ns == 0
	if i >= NumLatencyBuckets {
		i = NumLatencyBuckets - 1
	}
	return i
}

// BucketUpper returns the exclusive upper bound of bucket i.
func BucketUpper(i int) time.Duration {
	if i >= 63 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1) << uint(i))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the histogram state at one (approximate) instant.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumNs: h.sum.Load(),
		MaxNs: h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64                    `json:"count"`
	SumNs   uint64                    `json:"sum_ns"`
	MaxNs   uint64                    `json:"max_ns"`
	Buckets [NumLatencyBuckets]uint64 `json:"buckets"`
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// exclusive upper edge of the bucket containing that rank. The log2
// buckets bound the error to a factor of two.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			return BucketUpper(i)
		}
	}
	return time.Duration(s.MaxNs)
}

// Sub returns the histogram delta s - earlier: per-bucket counts,
// total count, and sum are subtracted, so quantiles computed on the
// result describe only the interval between the two snapshots. MaxNs
// keeps the later snapshot's value (the maximum is not recoverable per
// interval from a log2 histogram); treat it as "max since start".
// earlier must be a prior snapshot of the same histogram.
func (s HistogramSnapshot) Sub(earlier HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Count: s.Count - earlier.Count,
		SumNs: s.SumNs - earlier.SumNs,
		MaxNs: s.MaxNs,
	}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - earlier.Buckets[i]
	}
	return d
}

// OpStats aggregates one operation's counters. All fields are atomic;
// update and read from any goroutine.
type OpStats struct {
	// Calls counts invocations (client: issued calls; server:
	// dispatched requests, including failing ones).
	Calls atomic.Uint64
	// Errors counts failed invocations (client: Call returned an
	// error; server: the dispatcher returned an error).
	Errors atomic.Uint64
	// ReqBytes / RepBytes total the framed request and reply message
	// sizes, headers included.
	ReqBytes atomic.Uint64
	RepBytes atomic.Uint64
	// Latency is the per-call duration distribution (client: whole
	// round trip; server: decode + dispatch + reply encode/send).
	Latency Histogram
}

// done records one finished unit of work — a client call resolving or a
// server dispatch completing — that began at begin.
func (op *OpStats) done(repBytes int, failed bool, begin time.Time) {
	op.Calls.Add(1)
	if repBytes > 0 {
		op.RepBytes.Add(uint64(repBytes))
	}
	if failed {
		op.Errors.Add(1)
	}
	op.Latency.Observe(time.Since(begin))
}

// Metrics is a registry of per-operation and transport-level counters,
// attachable to a Client or Server. The zero value is ready to use; a
// nil *Metrics disables collection (the runtime's fast path is a single
// nil test). Share one Metrics across clients and servers freely — all
// updates are atomic.
type Metrics struct {
	ops sync.Map // string -> *OpStats

	// Conns counts connections served (ServeConn entries).
	Conns atomic.Uint64
	// ConnErrors counts connections that ended with a transport or
	// protocol error (previously swallowed silently by Serve).
	ConnErrors atomic.Uint64
	// BadHeaders counts received requests dropped because their header
	// did not parse. The requests are unanswerable (nothing identifies
	// the caller), so this counter is the only trace they leave.
	BadHeaders atomic.Uint64
	// BadXIDs counts replies whose transaction id matched no call in
	// flight: the connection is desynchronized (see ErrBadXID).
	BadXIDs atomic.Uint64
	// StaleReplies counts replies that arrived for calls which had
	// already timed out (per-call deadline); they are dropped without
	// poisoning the connection.
	StaleReplies atomic.Uint64
	// DispatchErrors counts server dispatch failures (unknown
	// operation, malformed arguments, work-function errors).
	DispatchErrors atomic.Uint64
	// Oneways counts invocations that did not expect a reply.
	Oneways atomic.Uint64

	// Fault-tolerance counters (client side). Retries counts
	// re-attempts under a RetryPolicy (attempts beyond each call's
	// first); Reconnects counts sessions transparently redialed after
	// a poisoned connection; BreakerOpen counts closed/half-open →
	// open transitions of the circuit breaker; BreakerRejects counts
	// calls shed with ErrBreakerOpen.
	Retries        atomic.Uint64
	Reconnects     atomic.Uint64
	BreakerOpen    atomic.Uint64
	BreakerRejects atomic.Uint64

	// Fault-tolerance counters (server side). PanicsRecovered counts
	// handler panics converted into RPC system-error replies;
	// DroppedDupes counts duplicate requests suppressed by the
	// DupWindow cache (re-answered from cache or dropped);
	// IdleReaped counts connections closed by the IdleTimeout;
	// Oversized counts frames dropped for exceeding MaxMessage.
	PanicsRecovered atomic.Uint64
	DroppedDupes    atomic.Uint64
	IdleReaped      atomic.Uint64
	Oversized       atomic.Uint64

	// Scale-out fabric counters. BatchedCalls counts messages that
	// travelled inside multi-message batch frames (incremented on the
	// packing side by BatchConn's writer and on the unpacking side by
	// BatchConn.Recv or the server's frame reader — with the usual
	// split client/server registries each side sees its own traffic).
	// BatchFrames counts the multi-message frames themselves, so
	// BatchedCalls/BatchFrames is the achieved batching factor. The
	// BatchFlush* counters record why the coalescing writer cut each
	// frame: the size/count caps, the queue running dry, the linger
	// deadline, or close. AdmissionRejects counts requests shed by
	// server-side admission control (ReplyOverloaded) before dispatch.
	// SessionFailovers counts calls a ClientPool moved off an unhealthy
	// or failing session onto another.
	BatchedCalls       atomic.Uint64
	BatchFrames        atomic.Uint64
	BatchFlushSize     atomic.Uint64
	BatchFlushIdle     atomic.Uint64
	BatchFlushDeadline atomic.Uint64
	BatchFlushClose    atomic.Uint64
	AdmissionRejects   atomic.Uint64
	SessionFailovers   atomic.Uint64

	// Call-lifecycle counters (client side). HedgedCalls counts pool
	// calls that launched a hedge attempt (the duplicate-work bound:
	// HedgedCalls/op Calls is the hedge rate); HedgeWins counts hedged
	// calls the hedge attempt won; CancelsSent counts cancel frames
	// sent for abandoned calls (ctx cancellation, timeouts, losing
	// hedge attempts); GoAways counts GOAWAY drain announcements
	// received from servers.
	HedgedCalls atomic.Uint64
	HedgeWins   atomic.Uint64
	CancelsSent atomic.Uint64
	GoAways     atomic.Uint64

	// Call-lifecycle counters (server side). ExpiredRejects counts
	// requests shed with ReplyExpired because their propagated deadline
	// had passed before dispatch (the handler never ran);
	// CanceledCalls counts in-flight calls released by a client cancel
	// frame (shed before dispatch, or handler context canceled);
	// DrainRejects counts requests shed because they arrived while the
	// server was draining (GOAWAY sent, socket about to close).
	ExpiredRejects atomic.Uint64
	CanceledCalls  atomic.Uint64
	DrainRejects   atomic.Uint64

	// InFlight is a gauge of client calls issued and not yet completed
	// (awaiting their reply, drain, or deadline).
	InFlight atomic.Int64
	// QueueDepth is a gauge of server requests decoded but not yet
	// picked up by a dispatch worker, summed over connections.
	QueueDepth atomic.Int64

	// Encoder/Decoder space-check counters, folded in per call (client)
	// or per request (server). EncGrowChecks counts Encoder.Grow calls
	// (the paper's ensure-space checks on the marshal side: optimized
	// stubs emit one per message segment, naive stubs one per datum);
	// EncGrowAllocs counts the subset that had to reallocate the
	// buffer. DecEnsureChecks counts Decoder.Ensure calls;
	// DecFailures counts decode failures (truncation, bounds, bad
	// constants).
	EncGrowChecks   atomic.Uint64
	EncGrowAllocs   atomic.Uint64
	DecEnsureChecks atomic.Uint64
	DecFailures     atomic.Uint64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Op returns the counter block for an operation name, creating it on
// first use. Hot-path callers hit the sync.Map read path (lock-free
// after the first call per op).
func (m *Metrics) Op(name string) *OpStats {
	if v, ok := m.ops.Load(name); ok {
		return v.(*OpStats)
	}
	v, _ := m.ops.LoadOrStore(name, &OpStats{})
	return v.(*OpStats)
}

// addEnc folds drained encoder counters into the registry.
func (m *Metrics) addEnc(s EncStats) {
	if s.GrowChecks != 0 {
		m.EncGrowChecks.Add(s.GrowChecks)
	}
	if s.GrowAllocs != 0 {
		m.EncGrowAllocs.Add(s.GrowAllocs)
	}
}

// addDec folds drained decoder counters into the registry.
func (m *Metrics) addDec(s DecStats) {
	if s.EnsureChecks != 0 {
		m.DecEnsureChecks.Add(s.EnsureChecks)
	}
	if s.Failures != 0 {
		m.DecFailures.Add(s.Failures)
	}
}

// OpSnapshot is a point-in-time copy of one operation's counters, with
// convenience quantiles precomputed from the latency histogram.
type OpSnapshot struct {
	Op       string            `json:"op"`
	Calls    uint64            `json:"calls"`
	Errors   uint64            `json:"errors"`
	ReqBytes uint64            `json:"req_bytes"`
	RepBytes uint64            `json:"rep_bytes"`
	Latency  HistogramSnapshot `json:"latency"`
	MeanNs   uint64            `json:"mean_ns"`
	P50Ns    uint64            `json:"p50_ns"`
	P90Ns    uint64            `json:"p90_ns"`
	P99Ns    uint64            `json:"p99_ns"`
	MaxNs    uint64            `json:"max_ns"`
}

// Snapshot is a stable, point-in-time copy of a Metrics registry,
// suitable for JSON encoding. Ops are sorted by name. Every other field
// copies the Metrics counter or gauge of the same name, and its JSON tag
// names it in every exposition (see counters).
type Snapshot struct {
	Ops []OpSnapshot `json:"ops"`

	Conns          uint64 `json:"conns"`
	ConnErrors     uint64 `json:"conn_errors"`
	BadHeaders     uint64 `json:"bad_headers"`
	BadXIDs        uint64 `json:"bad_xids"`
	StaleReplies   uint64 `json:"stale_replies"`
	DispatchErrors uint64 `json:"dispatch_errors"`
	Oneways        uint64 `json:"oneways"`
	InFlight       int64  `json:"in_flight"`
	QueueDepth     int64  `json:"queue_depth"`

	Retries         uint64 `json:"retries"`
	Reconnects      uint64 `json:"reconnects"`
	BreakerOpen     uint64 `json:"breaker_open"`
	BreakerRejects  uint64 `json:"breaker_rejects"`
	PanicsRecovered uint64 `json:"panics_recovered"`
	DroppedDupes    uint64 `json:"dropped_dupes"`
	IdleReaped      uint64 `json:"idle_reaped"`
	Oversized       uint64 `json:"oversized"`

	BatchedCalls       uint64 `json:"batched_calls"`
	BatchFrames        uint64 `json:"batch_frames"`
	BatchFlushSize     uint64 `json:"batch_flush_size"`
	BatchFlushIdle     uint64 `json:"batch_flush_idle"`
	BatchFlushDeadline uint64 `json:"batch_flush_deadline"`
	BatchFlushClose    uint64 `json:"batch_flush_close"`
	AdmissionRejects   uint64 `json:"admission_rejects"`
	SessionFailovers   uint64 `json:"session_failovers"`

	HedgedCalls    uint64 `json:"hedged_calls"`
	HedgeWins      uint64 `json:"hedge_wins"`
	CancelsSent    uint64 `json:"cancels_sent"`
	GoAways        uint64 `json:"goaways"`
	ExpiredRejects uint64 `json:"expired_rejects"`
	CanceledCalls  uint64 `json:"canceled_calls"`
	DrainRejects   uint64 `json:"drain_rejects"`

	EncGrowChecks   uint64 `json:"enc_grow_checks"`
	EncGrowAllocs   uint64 `json:"enc_grow_allocs"`
	DecEnsureChecks uint64 `json:"dec_ensure_checks"`
	DecFailures     uint64 `json:"dec_failures"`
}

// counter is one registry-wide value of the exposition: a Snapshot
// field and the Metrics field of the same name.
type counter struct {
	name       string // text exposition name: "flick_" + the JSON tag
	snap, live int    // field indexes in Snapshot and Metrics
}

// counters is the one list of registry-wide values, read off Snapshot's
// fields (Ops aside) in declaration order, with the signed gauges moved
// last: the order the text exposition prints them in.
var counters = func() []counter {
	var cs, gauges []counter
	st, mt := reflect.TypeOf(Snapshot{}), reflect.TypeOf(Metrics{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Name == "Ops" {
			continue
		}
		live, ok := mt.FieldByName(f.Name)
		if !ok {
			panic("rt: Snapshot." + f.Name + " has no Metrics counter")
		}
		c := counter{"flick_" + f.Tag.Get("json"), i, live.Index[0]}
		if f.Type.Kind() == reflect.Int64 {
			gauges = append(gauges, c)
		} else {
			cs = append(cs, c)
		}
	}
	return append(cs, gauges...)
}()

// Snapshot copies the registry. Individual counters are loaded
// atomically; the set is not a consistent cut under concurrent updates
// (totals may be mid-call), which is the usual monitoring contract.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	sv, mv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(m).Elem()
	for _, c := range counters {
		switch v := mv.Field(c.live).Addr().Interface().(type) {
		case *atomic.Uint64:
			sv.Field(c.snap).SetUint(v.Load())
		case *atomic.Int64:
			sv.Field(c.snap).SetInt(v.Load())
		}
	}
	m.ops.Range(func(k, v any) bool {
		op := v.(*OpStats)
		lat := op.Latency.Snapshot()
		s.Ops = append(s.Ops, OpSnapshot{
			Op:       k.(string),
			Calls:    op.Calls.Load(),
			Errors:   op.Errors.Load(),
			ReqBytes: op.ReqBytes.Load(),
			RepBytes: op.RepBytes.Load(),
			Latency:  lat,
			MeanNs:   uint64(lat.Mean()),
			P50Ns:    uint64(lat.Quantile(0.50)),
			P90Ns:    uint64(lat.Quantile(0.90)),
			P99Ns:    uint64(lat.Quantile(0.99)),
			MaxNs:    lat.MaxNs,
		})
		return true
	})
	sort.Slice(s.Ops, func(i, j int) bool { return s.Ops[i].Op < s.Ops[j].Op })
	return s
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Sub returns the per-interval delta s - earlier: every monotonic
// counter is subtracted, gauges (InFlight, QueueDepth) report the
// level *change* over the interval, and per-op latency statistics
// (mean, quantiles) are recomputed from the diffed histograms so they
// describe only the interval — the debug surface and tests use this to
// report rates instead of process-lifetime totals. Operations present
// only in s appear with their full counts (they started inside the
// interval); MaxNs is max-since-start (see HistogramSnapshot.Sub).
// earlier must be a prior snapshot of the same registry.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	d := s
	dv, ev := reflect.ValueOf(&d).Elem(), reflect.ValueOf(earlier)
	for _, c := range counters {
		if f := dv.Field(c.snap); f.CanUint() {
			f.SetUint(f.Uint() - ev.Field(c.snap).Uint())
		} else {
			f.SetInt(f.Int() - ev.Field(c.snap).Int())
		}
	}

	prior := make(map[string]OpSnapshot, len(earlier.Ops))
	for _, op := range earlier.Ops {
		prior[op.Op] = op
	}
	d.Ops = make([]OpSnapshot, 0, len(s.Ops))
	for _, op := range s.Ops {
		if p, ok := prior[op.Op]; ok {
			op.Calls -= p.Calls
			op.Errors -= p.Errors
			op.ReqBytes -= p.ReqBytes
			op.RepBytes -= p.RepBytes
			op.Latency = op.Latency.Sub(p.Latency)
			op.MeanNs = uint64(op.Latency.Mean())
			op.P50Ns = uint64(op.Latency.Quantile(0.50))
			op.P90Ns = uint64(op.Latency.Quantile(0.90))
			op.P99Ns = uint64(op.Latency.Quantile(0.99))
			op.MaxNs = op.Latency.MaxNs
		}
		d.Ops = append(d.Ops, op)
	}
	return d
}

// WriteTo writes an expvar/Prometheus-style text exposition: one
// `name value` line per counter, per-op counters labeled
// `{op="name"}`. It implements io.WriterTo.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	pr := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	sv := reflect.ValueOf(s)
	for _, c := range counters {
		if err := pr("%s %d\n", c.name, sv.Field(c.snap).Interface()); err != nil {
			return total, err
		}
	}
	for _, op := range s.Ops {
		rows := []struct {
			name string
			v    uint64
		}{
			{"calls", op.Calls},
			{"errors", op.Errors},
			{"req_bytes", op.ReqBytes},
			{"rep_bytes", op.RepBytes},
			{"latency_mean_ns", op.MeanNs},
			{"latency_p50_ns", op.P50Ns},
			{"latency_p90_ns", op.P90Ns},
			{"latency_p99_ns", op.P99Ns},
			{"latency_max_ns", op.MaxNs},
		}
		for _, r := range rows {
			if err := pr("flick_op_%s{op=%q} %d\n", r.name, op.Op, r.v); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// String renders the text exposition.
func (s Snapshot) String() string {
	var b writerToString
	s.WriteTo(&b)
	return string(b)
}

type writerToString []byte

func (w *writerToString) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
