package main

import (
	"fmt"
	"runtime"
	"time"

	"flick/internal/backend/gostub"
	"flick/internal/experiment"
	ts "flick/internal/teststubs"
	"flick/internal/verify"
	"flick/rt"
)

// The traced run spends its --seconds on three things: an untraced
// reference window on one caller (the same load shape the spans are
// taken on, so trace.overhead_pct compares like with like; the pool
// and arena counters are read here, where receive buffers still
// recycle), the traced window, and standalone probes of single layers.
const (
	refShare    = 0.20
	tracedShare = 0.30
	probeShare  = 0.50
	// keepCalls is how many calls' spans go to the Chrome trace file;
	// maxRows how many calls' phases are kept for typicalPhases.
	keepCalls = 2048
	maxRows   = 1 << 18
)

func us(ns float64) float64 { return ns / 1e3 }

// --- RPC workloads ------------------------------------------------------------------

func runRPCTraced(cfg *runConfig) (*result, error) {
	spec := rpcSpecs[cfg.workload]
	m := map[string]float64{}
	poolBase := rt.ReadPoolStats()
	// The traced window's recording storage exists before the reference
	// window and until the last probe, so all three run over the same
	// live heap: on the bulk workloads the garbage collector's pace, and
	// with it latency, follows the heap's size.
	rows := make([][nPhases]int32, 0, maxRows)
	defer runtime.KeepAlive(rows)

	// Reference window: the workload as the end-to-end run drives it,
	// cut to one caller unless depth is the workload's point.
	env, err := setupRPC(spec, cfg.root, cfg.seed, cfg.sabotage)
	if err != nil {
		return nil, err
	}
	m["interp.oracle_mismatches"] = float64(env.oracleNo)
	ops := env.ops
	if !spec.fabric {
		ops = ops[:1]
	}
	p0, z0 := rt.ReadPoolStats(), rt.ReadZeroCopyStats()
	ref := measure(ops, cfg.warmup()/2, cfg.dur(refShare))
	env.close()
	pd, zd := rt.ReadPoolStats().Sub(p0), rt.ReadZeroCopyStats().Sub(z0)
	failed := ref.failed + env.h.bad.Load()
	if ref.ops == 0 {
		return nil, fmt.Errorf("%s: no call completed in the reference window", spec.name)
	}
	// The counters also saw the warm-up's calls; per-call ratios use
	// the checkouts themselves as the call count (one call slot each).
	calls := float64(pd.CallGets)
	m["rt.pool.encoder_gets_per_call"] = float64(pd.EncoderGets) / calls
	m["rt.pool.decoder_gets_per_call"] = float64(pd.DecoderGets) / calls
	m["rt.zc.aliased_bytes_per_call"] = float64(zd.AliasedBytes) / calls
	m["rt.zc.copied_bytes_per_call"] = float64(zd.CopiedBytes) / calls
	m["rt.zc.vectored_share"] = share(zd.VectoredSends, zd.VectoredSends+zd.FlattenedSends)
	m["rt.zc.alias_views_per_call"] = float64(zd.AliasViews) / calls
	m["rt.zc.arena_miss_share"] = 1 - share(zd.ArenaPuts, zd.ArenaGets)
	m["rt.zc.arena_pinned_per_call"] = float64(zd.ArenaPinned) / calls
	m["go.gc_cycles_per_s"] = float64(ref.gcCycles) / ref.seconds
	m["go.gc_pause_ms_per_s"] = ref.gcPause.Seconds() * 1e3 / ref.seconds

	// Traced window.
	var traced *tracedWindow
	if spec.fabric {
		traced, err = fabricObserved(cfg, spec, env.data, m)
	} else {
		traced, err = spanTraced(cfg, spec, env.data, rows, m)
	}
	if err != nil {
		return nil, err
	}
	failed += traced.failed
	m["trace.latency_p50_us"] = traced.p50us
	m["trace.overhead_pct"] = (traced.p50us - ref.p50us()) / ref.p50us() * 100

	// Standalone probes.
	ss := spec.stubs(env.data, env.h)
	probeStubs(ss, m)
	probeProto(ss, m)
	budget := cfg.dur(probeShare)
	if assigned("stubs.dirs64k_flick_over_rpcgen", spec.name) {
		budget /= 2
		probeFig3(budget, m)
	}
	echo, err := probeEcho(spec, env.reqFrame, env.repFrame, budget)
	if err != nil {
		return nil, err
	}
	m["rt.transport.echo_rtt_us"] = echo
	if assigned("rt.engine.self_us", spec.name) {
		// What is left of a traced call once the wire, the generated
		// code and the handler are taken out. On the bulk workloads the
		// difference is smaller than its own noise and is not reported.
		m["rt.engine.self_us"] = traced.p50us - echo - m["stubs.marshal_us"] - m["stubs.unmarshal_us"] - m["handler_us"]
	}

	leak := poolLeak(poolBase)
	m["rt.pool.unbalanced"] = float64(leak)
	failed += leak
	attempted := ref.ops + traced.ops
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// per is a / b, or 0 when nothing was counted.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func share(part, whole uint64) float64 { return per(float64(part), float64(whole)) }

type tracedWindow struct {
	ops, failed uint64
	p50us       float64
}

// spanTraced runs one caller against a server whose connections, the
// dispatch function and the marshal code are all wrapped in stamps,
// and files each call's phases.
func spanTraced(cfg *runConfig, spec *rpcSpec, data *rpcData, rows [][nPhases]int32, m map[string]float64) (*tracedWindow, error) {
	h := &handlers{data: data, sabotage: cfg.sabotage}
	ss := spec.stubs(data, h)
	tr := newTracer()

	srv, _ := newServer(spec)
	// The harness's own dispatch function: what the generated
	// dispatcher does for this one operation, with a stamp between the
	// steps.
	srv.Register(0, 0, func(rh *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		if rh.Proc != ss.proc {
			return rt.ErrNoSuchOp
		}
		rh.OpName = ss.op
		r := tr.cur.Load()
		r.sUnm0.Store(tr.now())
		err := ss.unmarshalReq(d)
		t := tr.now()
		r.sUnm1.Store(t)
		if err != nil {
			return err
		}
		r.h0.Store(t)
		ss.handle()
		t = tr.now()
		r.h1.Store(t)
		r.sMar0.Store(t)
		ss.marshalRep(e)
		r.sMar1.Store(tr.now())
		return nil
	})
	lk, err := startServer(spec, srv, func(c rt.Conn) rt.Conn { return wrapSpan(c, tr, true) })
	if err != nil {
		return nil, err
	}
	conn, err := lk.dial()
	if err != nil {
		lk.stop()
		return nil, err
	}
	cl := rt.NewClient(wrapSpan(conn, tr, false), rt.ONC{})

	var total hist
	var sends, n, failed uint64
	spans := make([]span, 0, keepCalls*9)
	warmEnd := time.Now().Add(cfg.warmup() / 2)
	end := warmEnd.Add(cfg.dur(tracedShare))
	for k := uint64(0); ; k++ {
		r := tr.begin(k)
		d, err := cl.CallIdem(ss.proc, ss.op, false, ss.idem, func(e *rt.Encoder) {
			r.marshal0.Store(tr.now())
			ss.marshalReq(e, k)
			r.marshal1.Store(tr.now())
		})
		r.ret.Store(tr.now())
		ok := false
		if err == nil {
			ok = ss.unmarshalRep(d, k)
			r.unm1.Store(tr.now())
			d.Release()
		}
		r.end.Store(tr.now())
		now := time.Now()
		if now.After(end) {
			break
		}
		if now.Before(warmEnd) {
			continue
		}
		tr.recording.Store(true)
		n++
		if !ok {
			failed++
			continue
		}
		if len(rows) < maxRows {
			rows = append(rows, r.phases())
		}
		total.record(r.end.Load() - r.entry.Load())
		sends += uint64(r.sends.Load())
		if len(spans)+9 <= cap(spans) {
			spans = r.spans(spans, int(k))
		}
	}
	cl.Close()
	lk.stop()
	good := n - failed
	failed += h.bad.Load()
	if n == 0 {
		return nil, fmt.Errorf("%s: no call completed in the traced window", spec.name)
	}

	typical := typicalPhases(rows)
	for i, name := range phaseNames {
		m[name] = us(typical[i])
	}
	tr.sendH[0].merge(&tr.sendH[1])
	m["rt.transport.send_us"] = us(tr.sendH[0].quantile(0.5))
	m["rt.transport.sends_per_call"] = 0
	if good > 0 {
		m["rt.transport.sends_per_call"] = float64(sends) / float64(good)
	}
	if path := cfg.traceFile(); path != "" {
		if err := writeChromeTrace(path, spans); err != nil {
			return nil, err
		}
	}
	return &tracedWindow{ops: n, failed: failed, p50us: us(total.quantile(0.5))}, nil
}

// fabricObserved runs the fabric workload at its full depth with an
// rt.Metrics registry attached to each end and a counting conn under
// each batching session, and derives the fabric layers' ratios.
func fabricObserved(cfg *runConfig, spec *rpcSpec, data *rpcData, m map[string]float64) (*tracedWindow, error) {
	h := &handlers{data: data, sabotage: cfg.sabotage}
	sm, cm := rt.NewMetrics(), rt.NewMetrics()
	srv, _ := newServer(spec)
	srv.Metrics = sm
	spec.register(srv, h)
	lk, err := startServer(spec, srv, func(c rt.Conn) rt.Conn {
		return rt.NewBatchConn(c, rt.BatchConfig{Metrics: sm})
	})
	if err != nil {
		return nil, err
	}
	var counts []*countConn // the pool dials its sessions one after another
	pool, err := fabricPool(lk, cfg.seed, cm, func(c rt.Conn) rt.Conn {
		w, cc := wrapCount(c)
		counts = append(counts, cc)
		return w
	})
	if err != nil {
		lk.stop()
		return nil, err
	}
	var ops []op
	for i := 0; i < callersFor(spec.callers); i++ {
		ops = append(ops, fabricCaller(data, pool))
	}

	// Gauges are sampled every 10 ms while the window runs.
	var depth, inflight, samples float64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				depth += float64(sm.QueueDepth.Load())
				inflight += float64(cm.InFlight.Load())
				samples++
			}
		}
	}()
	w := measure(ops, cfg.warmup()/2, cfg.dur(tracedShare))
	close(stop)
	<-done
	pool.Close()
	lk.stop()
	if w.ops == 0 {
		return nil, fmt.Errorf("%s: no call completed in the observed window", spec.name)
	}

	// Counters cover warm-up and window alike; ratios are over the
	// calls the client registry counted.
	calls := float64(cm.Op("sum").Calls.Load())
	flushes := cm.BatchFlushSize.Load() + cm.BatchFlushIdle.Load() + cm.BatchFlushDeadline.Load() + cm.BatchFlushClose.Load()
	var wire int64
	for _, cc := range counts {
		wire += cc.sent.Load() + cc.got.Load()
	}
	served := sm.Op("sum").Calls.Load()
	m["rt.batch.calls_per_frame"] = per(calls, float64(flushes))
	m["rt.batch.flush_idle_share"] = share(cm.BatchFlushIdle.Load(), flushes)
	m["rt.batch.flush_size_share"] = share(cm.BatchFlushSize.Load(), flushes)
	m["rt.batch.wire_bytes_per_call"] = per(float64(wire), calls)
	m["rt.admission.reject_share"] = share(sm.AdmissionRejects.Load(), served+sm.AdmissionRejects.Load())
	m["rt.client.retries_per_call"] = per(float64(cm.Retries.Load()), calls)
	m["rt.pool_client.failovers"] = float64(cm.SessionFailovers.Load())
	m["rt.server.queue_depth_mean"] = per(depth, samples)
	m["rt.client.in_flight_mean"] = per(inflight, samples)
	return &tracedWindow{ops: w.ops, failed: w.failed + h.bad.Load(), p50us: w.p50us()}, nil
}

// --- Standalone probes --------------------------------------------------------------

// batchRate runs f in batches of n for about budget and returns the
// median batch's time per call in ns.
func batchRate(budget time.Duration, n int, f func()) float64 {
	var per []float64
	for end := time.Now().Add(budget); len(per) < 5 || time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
		if len(per) >= 4096 {
			break
		}
	}
	return median(per)
}

// probeStubs drives the workload's generated code on a standalone
// Encoder and Decoder with counting on: space checks per message and
// the unmarshal side's allocations per call.
func probeStubs(ss *stubSet, m map[string]float64) {
	const rounds = 256
	var req, rep rt.Encoder
	req.EnableStats(true)
	rep.EnableStats(true)
	var reqBytes, repBytes []byte
	for k := uint64(0); k < rounds; k++ {
		req.Reset()
		ss.marshalReq(&req, k)
		reqBytes = req.Bytes()
		_ = ss.unmarshalReq(rt.NewDecoder(reqBytes))
		ss.handle()
		rep.Reset()
		ss.marshalRep(&rep)
		repBytes = rep.Bytes()
	}
	es := req.Stats()
	rs := rep.Stats()
	m["rt.enc.grow_checks_per_msg"] = float64(es.GrowChecks+rs.GrowChecks) / (2 * rounds)
	m["rt.enc.grow_allocs_per_msg"] = float64(es.GrowAllocs+rs.GrowAllocs) / (2 * rounds)

	var d rt.Decoder
	d.EnableStats(true)
	reqBytes = append([]byte(nil), reqBytes...)
	repBytes = append([]byte(nil), repBytes...)
	k := uint64(rounds - 1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		d.Reset(reqBytes)
		_ = ss.unmarshalReq(&d)
		d.Reset(repBytes)
		ss.unmarshalRep(&d, k)
	}
	runtime.ReadMemStats(&m1)
	m["rt.dec.ensure_checks_per_msg"] = float64(d.Stats().EnsureChecks) / (2 * rounds)
	m["stubs.unmarshal_allocs"] = float64(m1.Mallocs-m0.Mallocs) / rounds
}

// probeProto times the ONC message headers the workload's calls carry.
func probeProto(ss *stubSet, m map[string]float64) {
	proto := rt.ONC{}
	rh := rt.ReqHeader{XID: 7, Proc: ss.proc, OpName: ss.op, ObjectKey: []byte("flick")}
	ph := rt.RepHeader{XID: 7}
	var e rt.Encoder
	var d rt.Decoder
	const budget = 20 * time.Millisecond
	m["rt.proto.request_header_ns"] = batchRate(budget, 1000, func() {
		e.Reset()
		proto.WriteRequest(&e, &rh)
		d.Reset(e.Bytes())
		_, _ = proto.ReadRequest(&d)
	})
	reqLen := e.Len()
	m["rt.proto.reply_header_ns"] = batchRate(budget, 1000, func() {
		e.Reset()
		proto.WriteReply(&e, &ph)
		d.Reset(e.Bytes())
		_, _ = proto.ReadReply(&d)
	})
	m["rt.proto.header_bytes"] = float64(reqLen + e.Len())
}

// probeEcho is the transport alone: a raw rt.Conn ping-pong with
// frames of the workload's request and reply sizes against an echo
// goroutine, no rt.Client or rt.Server. Raw Recv buffers cannot be
// handed back to the receive arena from outside rt, so each frame
// pays an arena miss, as a traced call's frames do.
func probeEcho(spec *rpcSpec, reqFrame, repFrame int, budget time.Duration) (rttUs float64, err error) {
	var a, b rt.Conn
	if spec.tcp {
		l, err := rt.ListenTCP("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer l.Close()
		if a, err = rt.DialTCP(l.Addr()); err != nil {
			return 0, err
		}
		if b, err = l.Accept(); err != nil {
			a.Close()
			return 0, err
		}
	} else {
		a, b = rt.Pipe()
	}
	req, rep := make([]byte, reqFrame), make([]byte, repFrame)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
			if b.Send(rep) != nil {
				return
			}
		}
	}()
	var h hist
	for end := time.Now().Add(budget); err == nil && (h.n < 100 || time.Now().Before(end)); {
		t0 := time.Now()
		if err = a.Send(req); err == nil {
			_, err = a.Recv()
		}
		h.record(int64(time.Since(t0)))
	}
	a.Close()
	b.Close()
	<-echoed
	return us(h.quantile(0.5)), err
}

// probeFig3 pins the paper's Figure 3 at 64 KiB: generated marshal and
// unmarshal throughput on a reused Encoder, XDR and CDR, plus the
// optimized over rpcgen-style ratio on directory entries.
func probeFig3(budget time.Duration, m map[string]float64) {
	const size = 64 << 10
	ints, rects, dirs := experiment.IntArray(size), experiment.RectArray(size), experiment.DirArray(size)
	var e rt.Encoder
	each := budget / 9
	rate := func(f func()) float64 { return size / batchRate(each, 16, f) * 1e3 } // B/ns → MB/s
	marshal := func(f func()) float64 { return rate(func() { e.Reset(); f() }) }

	m["stubs.ints64k_marshal_mb_per_s.xdr"] = marshal(func() { ts.MarshalBenchSendIntsXDRRequest(&e, ints) })
	m["stubs.ints64k_marshal_mb_per_s.cdr"] = marshal(func() { ts.MarshalBenchSendIntsCDRRequest(&e, ints) })
	m["stubs.rects64k_marshal_mb_per_s.xdr"] = marshal(func() { ts.MarshalBenchSendRectsXDRRequest(&e, rects) })
	m["stubs.rects64k_marshal_mb_per_s.cdr"] = marshal(func() { ts.MarshalBenchSendRectsCDRRequest(&e, rects) })
	naive := marshal(func() { ts.MarshalBenchSendDirsXDRNaiveRequest(&e, dirs) })
	m["stubs.dirs64k_marshal_mb_per_s.cdr"] = marshal(func() { ts.MarshalBenchSendDirsCDRRequest(&e, dirs) })
	cdr := append([]byte(nil), e.Bytes()...)
	xdrRate := marshal(func() { ts.MarshalBenchSendDirsXDRRequest(&e, dirs) })
	xdr := append([]byte(nil), e.Bytes()...)
	m["stubs.dirs64k_marshal_mb_per_s.xdr"] = xdrRate
	m["stubs.dirs64k_flick_over_rpcgen"] = xdrRate / naive

	var d rt.Decoder
	m["stubs.dirs64k_unmarshal_mb_per_s.xdr"] = rate(func() { d.Reset(xdr); _, _ = ts.UnmarshalBenchSendDirsXDRRequest(&d) })
	m["stubs.dirs64k_unmarshal_mb_per_s.cdr"] = rate(func() { d.Reset(cdr); _, _ = ts.UnmarshalBenchSendDirsCDRRequest(&d) })
}

// --- The compile workload --------------------------------------------------------------

func runCompileTraced(cfg *runConfig) (*result, error) {
	units, err := buildUnits(cfg.root, cfg.seed)
	if err != nil {
		return nil, err
	}
	if _, err := checkUnits(units); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	nUnits := float64(len(units))

	ref := measure([]op{compileOp(units)}, cfg.warmup()/2, cfg.dur(refShare))
	if ref.ops == 0 {
		return nil, fmt.Errorf("compile: no unit compiled in the reference window")
	}
	m["flick.compile_allocs_per_unit"] = float64(ref.mallocs) / float64(ref.ops)
	m["go.gc_cycles_per_s"] = float64(ref.gcCycles) / ref.seconds
	m["go.gc_pause_ms_per_s"] = ref.gcPause.Seconds() * 1e3 / ref.seconds

	// Staged passes. The back ends run the MIR verifier inside Generate,
	// and the only way to cost it from outside is to generate with
	// verification on and off and subtract; each unit is compiled both
	// ways back to back, so host drift cancels within the pair.
	type passSums struct{ parse, pgen, presc, goGen, cGen, genOff time.Duration }
	var passes []passSums
	var total hist
	var failed, attempted uint64
	var counts gostub.Stats
	var srcBytes, aoiOps, stubs, goUnits, cUnits, goBytes, cBytes int
	var spans []span
	base := time.Now()
	for end := base.Add(cfg.dur(tracedShare + probeShare)); len(passes) == 0 || time.Now().Before(end); {
		first := len(passes) == 0
		var stats, offStats gostub.Stats
		var ps passSums
		for i, u := range units {
			var sp, off stageSpans
			t0 := time.Now()
			out, err := stagedCompile(u, verify.On, &stats, &sp)
			lat := time.Since(t0)
			outOff, errOff := stagedCompile(u, verify.Off, &offStats, &off)
			attempted++
			if err != nil || errOff != nil || hashOf(out) != u.hash || outOff != out {
				failed++
				continue
			}
			total.record(int64(lat))
			ps.parse += sp.parse
			ps.pgen += sp.pgen
			ps.presc += sp.presc
			ps.genOff += off.backend
			if u.opt.Lang == "c" {
				ps.cGen += sp.backend
			} else {
				ps.goGen += sp.backend
			}
			if !first {
				continue
			}
			srcBytes += len(u.src)
			aoiOps += sp.aoiOps
			stubs += sp.stubs
			if u.opt.Lang == "c" {
				cUnits++
				cBytes += len(out)
			} else {
				goUnits++
				goBytes += len(out)
			}
			s := int64(t0.Sub(base))
			root := len(spans)
			spans = append(spans, span{"compile " + u.label, s, s + int64(lat), -1, i})
			for _, st := range [...]struct {
				name string
				d    time.Duration
			}{{"frontend.parse", sp.parse}, {"pgen.generate", sp.pgen}, {"verify.presc", sp.presc}, {"backend.generate", sp.backend}} {
				spans = append(spans, span{st.name, s, s + int64(st.d), root, i})
				s += int64(st.d)
			}
		}
		passes = append(passes, ps)
		counts = stats
	}
	if failed != 0 {
		return nil, fmt.Errorf("compile: %d staged compilations failed or differ from flick.Compile's output", failed)
	}

	med := func(f func(passSums) time.Duration, per int) float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = float64(f(p)) / float64(per) / 1e3
		}
		return median(vs)
	}
	parseUs := med(func(p passSums) time.Duration { return p.parse }, len(units))
	m["frontend.parse_us_per_unit"] = parseUs
	m["frontend.parse_mb_per_s"] = float64(srcBytes) / nUnits / parseUs
	m["frontend.aoi_ops"] = float64(aoiOps)
	m["pgen.generate_us_per_unit"] = med(func(p passSums) time.Duration { return p.pgen }, len(units))
	m["pgen.stubs"] = float64(stubs)
	m["verify.presc_us_per_unit"] = med(func(p passSums) time.Duration { return p.presc }, len(units))
	m["verify.mir_us_per_unit"] = med(func(p passSums) time.Duration { return p.goGen + p.cGen - p.genOff }, len(units))
	m["verify.mint_nodes"] = float64(counts.Verify.MintNodes)
	m["verify.mir_programs"] = float64(counts.Verify.MirPrograms)
	m["verify.findings"] = float64(counts.Verify.Findings)
	m["mir.programs"] = float64(counts.Total.Programs)
	m["mir.space_checks_before"] = float64(counts.Total.SpaceChecksBefore)
	m["mir.space_checks_after"] = float64(counts.Total.SpaceChecksAfter)
	m["mir.chunks"] = float64(counts.Total.Chunks)
	m["mir.bulk_arrays"] = float64(counts.Total.BulkArrays)
	m["mir.alias_safe"] = float64(counts.Total.AliasSafe)
	m["mir.inlined_aggregates"] = float64(counts.Total.InlinedAggregates)
	m["backend.gostub.generate_us_per_unit"] = med(func(p passSums) time.Duration { return p.goGen }, goUnits)
	m["backend.cstub.generate_us_per_unit"] = med(func(p passSums) time.Duration { return p.cGen }, cUnits)
	m["backend.gostub.gen_bytes_per_unit"] = float64(goBytes) / float64(goUnits)
	m["backend.cstub.gen_bytes_per_unit"] = float64(cBytes) / float64(cUnits)

	m["trace.latency_p50_us"] = us(total.quantile(0.5))
	m["trace.overhead_pct"] = (m["trace.latency_p50_us"] - ref.p50us()) / ref.p50us() * 100
	failed += ref.failed + uint64(counts.Verify.Findings)
	attempted += ref.ops
	if path := cfg.traceFile(); path != "" {
		if err := writeChromeTrace(path, spans); err != nil {
			return nil, err
		}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
