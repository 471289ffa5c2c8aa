package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flick/rt"
)

// runConfig is one workload run's command line.
type runConfig struct {
	workload string
	root     string // repository root: where the IDL sources are read
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // Chrome trace_event file of the traced run ("" = none)
	sabotage bool   // self-test: make the Sum handler answer wrongly
	started  time.Time
}

func (c *runConfig) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// warmup precedes every measured window: two seconds, or a fifth of
// the window when a smoke run asks for less.
func (c *runConfig) warmup() time.Duration {
	if w := c.dur(0.2); w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}

// result is what one run reports: the driver's one-line JSON object
// is made from it.
type result struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]float64
	// Notes are printed to stderr for a reader; they are not metrics.
	Notes []string
}

// Set-up runs several times and setup_s is the median, so one slow
// dial or page fault does not move it: while a tenth of the window has
// not passed (1.5 s of a 15 s one: three times for the compile
// workload, whose set-up compiles every unit twice), at most
// maxSetups times (an RPC workload's takes milliseconds).
const maxSetups = 15

// instance is a set-up workload ready to measure.
type instance struct {
	ops      []op
	close    func()
	payloadB float64 // useful bytes per operation
	outB     float64 // bytes the system emits per operation
	// check runs after close and returns failures found outside the
	// callers (server-side compares, pool leaks).
	check func() uint64
}

func setupWorkload(cfg *runConfig) (*instance, error) {
	if cfg.workload == "compile" {
		units, err := buildUnits(cfg.root, cfg.seed)
		if err != nil {
			return nil, err
		}
		st, err := checkUnits(units)
		if err != nil {
			return nil, err
		}
		n := float64(len(units))
		return &instance{
			ops:      []op{compileOp(units)},
			close:    func() {},
			payloadB: float64(st.srcBytes) / n,
			outB:     float64(st.genBytes) / n,
			check:    func() uint64 { return 0 },
		}, nil
	}
	env, err := setupRPC(rpcSpecs[cfg.workload], cfg.root, cfg.seed, cfg.sabotage)
	if err != nil {
		return nil, err
	}
	if env.oracleNo != 0 {
		env.close()
		return nil, fmt.Errorf("%s: %d stub messages differ from the interp oracle", cfg.workload, env.oracleNo)
	}
	return &instance{
		ops:      env.ops,
		close:    env.close,
		payloadB: env.payloadB,
		outB:     float64(env.reqFrame + env.repFrame),
		check:    func() uint64 { return env.h.bad.Load() },
	}, nil
}

// runEndToEnd is the tracing-off run: set-up (several times, for
// setup_s), warm-up, one measured window, every end-to-end metric.
func runEndToEnd(cfg *runConfig) (*result, error) {
	poolBase := rt.ReadPoolStats()
	var inst *instance
	setups := make([]float64, 0, maxSetups)
	for i := 0; i == 0 || (i < maxSetups && time.Since(cfg.started) < cfg.dur(0.1)); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.started // the first set-up includes process start
		}
		var err error
		if inst, err = setupWorkload(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	w := measure(inst.ops, cfg.warmup(), cfg.dur(1))
	inst.close()
	failed := w.failed + inst.check() + poolLeak(poolBase)
	if w.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the window", cfg.workload)
	}

	ops := float64(w.ops)
	res := &result{
		Correct:   failed == 0,
		Attempted: w.ops,
		Failed:    failed,
		Metrics: map[string]float64{
			"ops_per_s":       w.opsPerS(),
			"mb_per_s":        w.opsPerS() * inst.payloadB / 1e6,
			"latency_p50_us":  w.p50us(),
			"latency_p99_us":  w.p99us(),
			"cpu_us_per_op":   w.cpuUs / ops,
			"allocs_per_op":   float64(w.mallocs) / ops,
			"alloc_kb_per_op": float64(w.allocB) / ops / 1e3,
			"out_kb_per_op":   inst.outB / 1e3,
			"setup_s":         median(setups),
		},
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%s: %d callers, %d ops in %.1fs, p99.9 %.1fus, %d GC cycles",
		cfg.workload, w.callers, w.ops, w.seconds, w.p999us(), w.gcCycles))
	var rates, p50s, p99s []string
	for i := range w.slices {
		rates = append(rates, fmt.Sprintf("%.0f", float64(w.slices[i].n)/w.seconds*nSlices))
		p50s = append(p50s, fmt.Sprintf("%.1f", w.slices[i].quantile(0.5)/1e3))
		p99s = append(p99s, fmt.Sprintf("%.1f", w.slices[i].quantile(0.99)/1e3))
	}
	res.Notes = append(res.Notes, "  per slice, ops/s: "+strings.Join(rates, " "),
		"  per slice, p50 us: "+strings.Join(p50s, " "), "  per slice, p99 us: "+strings.Join(p99s, " "))
	return res, nil
}

// poolLeak waits for the runtime's buffer pools to balance after
// teardown (late releases settle within milliseconds) and returns how
// many checkouts never came back.
func poolLeak(base rt.PoolStats) uint64 {
	var d rt.PoolStats
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		d = rt.ReadPoolStats().Sub(base)
		if d.Balanced() || time.Now().After(deadline) {
			break
		}
	}
	gap := func(gets, puts uint64) uint64 {
		if gets < puts {
			return puts - gets
		}
		return gets - puts
	}
	return gap(d.EncoderGets, d.EncoderPuts) + gap(d.DecoderGets, d.DecoderPuts) + gap(d.CallGets, d.CallPuts)
}

// runWorkload dispatches one run and fills in the metrics a workload
// does not exercise with 0, so every run reports every name.
func runWorkload(cfg *runConfig) (*result, error) {
	if !isWorkload(cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	var res *result
	var err error
	switch {
	case !cfg.trace:
		res, err = runEndToEnd(cfg)
	case cfg.workload == "compile":
		res, err = runCompileTraced(cfg)
	default:
		res, err = runRPCTraced(cfg)
	}
	if err != nil {
		return nil, err
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: %s is not a finite number", cfg.workload, name)
		}
	}
	if !cfg.trace {
		return res, nil
	}
	for i := range perLayer {
		m := &perLayer[i]
		_, have := res.Metrics[m.Name]
		switch {
		case m.on(cfg.workload) && !have:
			return nil, fmt.Errorf("%s: traced run did not produce %s", cfg.workload, m.Name)
		case !m.on(cfg.workload) && have:
			return nil, fmt.Errorf("%s: %s is not assigned to this workload", cfg.workload, m.Name)
		case !have:
			res.Metrics[m.Name] = 0
		}
	}
	return res, nil
}

// traceFile resolves where the traced run writes its Chrome trace.
func (c *runConfig) traceFile() string {
	if c.traceOut == "" {
		return ""
	}
	if err := os.MkdirAll(filepath.Dir(c.traceOut), 0o755); err != nil {
		return ""
	}
	return c.traceOut
}
