package rt

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// --- annotation wire layout ---------------------------------------------------

// TestTraceAnnotationRoundTrip writes an annotated request in every
// wire format and checks that SplitTrace recovers the context exactly
// and that the remainder still parses as the original request.
func TestTraceAnnotationRoundTrip(t *testing.T) {
	protos := []Protocol{ONC{}, GIOP{}, GIOP{Little: true}, Mach{}, Fluke{}}
	tc := TraceContext{SpanID: 0xDEADBEEFCAFE, Sampled: true}
	for i := range tc.TraceID {
		tc.TraceID[i] = byte(i + 1)
	}
	for _, p := range protos {
		h := ReqHeader{XID: 42, Prog: 7, Vers: 1, Proc: 3, OpName: "sum", ObjectKey: []byte("flick")}
		var e Encoder
		writeTraceContext(&e, tc)
		p.WriteRequest(&e, &h)
		e.PutU32BEC(99) // payload

		got, rest, ok := SplitTrace(e.Bytes())
		if !ok {
			t.Fatalf("%s: annotated request not recognized", p.Name())
		}
		if got != tc {
			t.Fatalf("%s: context = %+v, want %+v", p.Name(), got, tc)
		}
		var d Decoder
		d.Reset(rest)
		rh, err := p.ReadRequest(&d)
		if err != nil {
			t.Fatalf("%s: stripped request did not parse: %v", p.Name(), err)
		}
		if rh.XID != 42 {
			t.Fatalf("%s: xid = %d, want 42", p.Name(), rh.XID)
		}
	}
}

// TestSplitTraceRejectsMalformed pins the structural validation: plain
// messages, truncated prefixes, bare prefixes with no message behind
// them, and reserved flag bits must all fall through to ordinary
// parsing.
func TestSplitTraceRejectsMalformed(t *testing.T) {
	var e Encoder
	ONC{}.WriteRequest(&e, &ReqHeader{XID: 1, Prog: 7, Vers: 1, Proc: 1})
	plain := e.Bytes()
	if _, rest, ok := SplitTrace(plain); ok || len(rest) != len(plain) {
		t.Fatal("plain request misdetected as annotated")
	}

	annotated := func(mutate func([]byte)) []byte {
		var e Encoder
		writeTraceContext(&e, TraceContext{SpanID: 7, Sampled: true})
		ONC{}.WriteRequest(&e, &ReqHeader{XID: 1, Prog: 7, Vers: 1, Proc: 1})
		buf := append([]byte(nil), e.Bytes()...)
		if mutate != nil {
			mutate(buf)
		}
		return buf
	}
	if _, _, ok := SplitTrace(annotated(nil)); !ok {
		t.Fatal("well-formed annotation rejected")
	}
	if _, _, ok := SplitTrace(annotated(nil)[:traceWireSize]); ok {
		t.Fatal("bare prefix with no message accepted")
	}
	if _, _, ok := SplitTrace(annotated(nil)[:12]); ok {
		t.Fatal("truncated prefix accepted")
	}
	if _, _, ok := SplitTrace(annotated(func(b []byte) { b[5] = 0x80 })); ok {
		t.Fatal("reserved flag bits accepted")
	}
	if _, _, ok := SplitTrace(annotated(func(b []byte) { b[0] = 0 })); ok {
		t.Fatal("wrong magic accepted")
	}
}

// --- tracer: sampling, ring, IDs ----------------------------------------------

func TestTracerSampling(t *testing.T) {
	never := &Tracer{SampleRate: 0, Seed: 1}
	if _, ok := never.sampleRoot(); ok {
		t.Fatal("rate 0 sampled")
	}
	always := &Tracer{SampleRate: 1, Seed: 1}
	for i := 0; i < 100; i++ {
		tc, ok := always.sampleRoot()
		if !ok {
			t.Fatal("rate 1 declined")
		}
		if !tc.Sampled || tc.TraceID.IsZero() || tc.SpanID == 0 {
			t.Fatalf("bad sampled context: %+v", tc)
		}
	}
	// Head-based probabilistic: a 10% rate over many roots lands near
	// 10% (splitmix64 output is uniform; bounds are generous).
	some := &Tracer{SampleRate: 0.10, Seed: 42}
	hits := 0
	for i := 0; i < 10000; i++ {
		if _, ok := some.sampleRoot(); ok {
			hits++
		}
	}
	if hits < 700 || hits > 1300 {
		t.Fatalf("10%% sampling hit %d/10000 roots", hits)
	}
	// Determinism: the same seed yields the same decisions.
	a, b := &Tracer{SampleRate: 0.5, Seed: 9}, &Tracer{SampleRate: 0.5, Seed: 9}
	for i := 0; i < 100; i++ {
		ta, oka := a.sampleRoot()
		tb, okb := b.sampleRoot()
		if oka != okb || ta != tb {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := &Tracer{RingSize: 8, Seed: 1}
	for i := 0; i < 20; i++ {
		tr.record(&Span{ID: uint64(i + 1), Kind: SpanClientCall})
	}
	if got := tr.Recorded(); got != 20 {
		t.Fatalf("Recorded = %d, want 20", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("len(Spans) = %d, want 8", len(spans))
	}
	for i, sp := range spans {
		if want := uint64(13 + i); sp.ID != want {
			t.Fatalf("span %d has ID %d, want %d (oldest-first)", i, sp.ID, want)
		}
	}
}

func TestTracerIDsNonzeroAndDistinct(t *testing.T) {
	tr := &Tracer{Seed: 3}
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := tr.nextID()
		if id == 0 {
			t.Fatal("zero span ID")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %x", id)
		}
		seen[id] = true
	}
}

// --- Chrome trace export ------------------------------------------------------

// chromeDoc mirrors the trace_event JSON object format for validation.
type chromeDoc struct {
	Events []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	tr := &Tracer{Seed: 5, SampleRate: 1}
	tc, _ := tr.sampleRoot()
	start := time.Now()
	tr.record(&Span{
		Trace: tc.TraceID, ID: tc.SpanID, Kind: SpanClientCall, Op: "sum",
		Start: start, Dur: 5 * time.Millisecond, Sampled: true,
		Events: []SpanEvent{{Offset: time.Millisecond, Cause: "retry", Detail: "attempt 2"}},
	})
	tr.record(&Span{
		Trace: tc.TraceID, ID: tr.nextID(), Parent: tc.SpanID, Kind: SpanServerDispatch,
		Op: "sum", Start: start.Add(time.Millisecond), Dur: time.Millisecond, Sampled: true,
	})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var iEvents int
	pidByCat := make(map[string]int)
	for _, ev := range doc.Events {
		switch ev.Ph {
		case "X":
			pidByCat[ev.Cat] = ev.Pid
			if ev.Ts <= 0 || ev.Name == "" || ev.Args["trace"] == "" {
				t.Fatalf("malformed X event: %+v", ev)
			}
		case "i":
			iEvents++
			if ev.Name != "retry" {
				t.Fatalf("instant event name = %q, want retry", ev.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if len(pidByCat) != 2 || iEvents != 1 {
		t.Fatalf("events = %v X + %d i, want call+dispatch X + 1 i", pidByCat, iEvents)
	}
	// Client and server spans land on different process lanes.
	if pidByCat["call"] == pidByCat["dispatch"] {
		t.Fatalf("client and server spans share pid %d", pidByCat["call"])
	}
}

// --- always-sample-on-error ---------------------------------------------------

func TestErrorSpansRecordedWhenUnsampled(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	serverEnd.Close()
	clientEnd.Close()
	c := newEchoClient(clientEnd)
	tr := &Tracer{SampleRate: 0, Seed: 1}
	c.Tracer = tr

	if _, err := c.Call(1, "double", false, func(e *Encoder) { e.PutU32BEC(1) }); err == nil {
		t.Fatal("call on closed conn succeeded")
	}
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1 error span", len(spans))
	}
	sp := spans[0]
	if sp.Kind != SpanClientCall || sp.Err == "" || sp.Sampled {
		t.Fatalf("error span = %+v, want unsampled client-call with Err", sp)
	}
	if sp.Trace.IsZero() {
		t.Fatal("error span has zero trace ID")
	}
}

// TestTracingDisabledAllocs pins the tracing fast paths: a loopback
// call with no Tracer attached, and one with a Tracer whose sampler
// declines, must both stay at the seed's 4 allocs/op — attaching a
// tracer at 0% sampling is free.
func TestTracingDisabledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts; the non-race run enforces the budget")
	}
	conn, _, _ := startObservedServer(t)
	c := NewClient(conn, ONC{})
	c.Prog, c.Vers = 7, 1
	marshal := func(e *Encoder) { e.PutU32BEC(4) }
	call := func() {
		if _, err := c.Call(1, "double", false, marshal); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(300, call); avg > 4 {
		t.Errorf("Call allocates %.1f/op with no tracer (budget 4)", avg)
	}
	c.Tracer = &Tracer{SampleRate: 0, Seed: 1}
	if avg := testing.AllocsPerRun(300, call); avg > 4 {
		t.Errorf("Call allocates %.1f/op with an unsampled tracer (budget 4)", avg)
	}
}

// --- debug surface ------------------------------------------------------------

func TestDebugDumpAndHandler(t *testing.T) {
	conn, sm, _ := startObservedServer(t)
	c := newEchoClient(conn)
	c.Metrics = sm // share one registry client+server
	tr := &Tracer{SampleRate: 1, Seed: 7}
	c.Tracer = tr
	for i := 0; i < 5; i++ {
		doubleCall(t, c, uint32(i))
	}

	dbg := NewDebug(DebugConfig{Metrics: sm, Tracer: tr})
	dump := dbg.Dump()
	for _, want := range []string{"== metrics ==", "op double", "== spans ", "call double", "trace="} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}

	get := func(path string) (int, string, string) {
		rw := httptest.NewRecorder()
		dbg.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
		return rw.Code, rw.Header().Get("Content-Type"), rw.Body.String()
	}
	if code, ctype, body := get("/debug/"); code != 200 || !strings.Contains(body, "== metrics ==") || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/debug/: code=%d ctype=%q", code, ctype)
	}
	if code, _, body := get("/debug/metrics"); code != 200 || !strings.Contains(body, "flick_conns") {
		t.Fatalf("/debug/metrics: code=%d body=%q", code, body[:min(len(body), 80)])
	}
	if code, ctype, body := get("/debug/metrics.json"); code != 200 || !strings.HasPrefix(ctype, "application/json") || !json.Valid([]byte(body)) {
		t.Fatalf("/debug/metrics.json: code=%d ctype=%q", code, ctype)
	}
	if code, ctype, body := get("/debug/trace"); code != 200 || !strings.HasPrefix(ctype, "application/json") || !json.Valid([]byte(body)) {
		t.Fatalf("/debug/trace: code=%d ctype=%q", code, ctype)
	}

	// /delta: the second scrape reports only the interval. One call in
	// the interval counts twice in the shared registry (client issue +
	// server dispatch).
	get("/debug/delta")
	doubleCall(t, c, 9)
	_, _, body := get("/debug/delta")
	if !strings.Contains(body, `flick_op_calls{op="double"} 2`) {
		t.Fatalf("/delta did not report the per-interval count:\n%s", body)
	}
}

func TestSnapshotSubDeltas(t *testing.T) {
	m := NewMetrics()
	op := m.Op("x")
	op.Calls.Add(3)
	op.Latency.Observe(time.Millisecond)
	m.Retries.Add(2)
	base := m.Snapshot()

	op.Calls.Add(5)
	op.Latency.Observe(time.Second)
	op.Latency.Observe(time.Second)
	m.Retries.Add(1)
	m.InFlight.Add(4)

	d := m.Snapshot().Sub(base)
	if d.Retries != 1 {
		t.Fatalf("Retries delta = %d, want 1", d.Retries)
	}
	if d.InFlight != 4 {
		t.Fatalf("InFlight delta = %d, want 4", d.InFlight)
	}
	if len(d.Ops) != 1 || d.Ops[0].Calls != 5 {
		t.Fatalf("op delta = %+v, want Calls 5", d.Ops)
	}
	if d.Ops[0].Latency.Count != 2 {
		t.Fatalf("latency delta count = %d, want 2", d.Ops[0].Latency.Count)
	}
	// The interval's p50 reflects only the two 1s observations, not the
	// 1ms one from before the base snapshot.
	if p50 := time.Duration(d.Ops[0].P50Ns); p50 < 500*time.Millisecond {
		t.Fatalf("interval p50 = %v, polluted by pre-interval samples", p50)
	}
	// Ops that appear inside the interval carry their full counts.
	m.Op("fresh").Calls.Add(7)
	d2 := m.Snapshot().Sub(base)
	for _, op := range d2.Ops {
		if op.Op == "fresh" && op.Calls != 7 {
			t.Fatalf("fresh op delta = %d, want 7", op.Calls)
		}
	}
}
