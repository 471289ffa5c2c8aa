package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

const testRoot = ".."

// exact returns the ceil(q·n)-th smallest value of sorted vs, the
// definition hist.quantile approximates.
func exact(vs []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	return vs[i]
}

func TestHistQuantilesMatchSortedSlice(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, scale := range []float64{300, 2500, 40e3, 9e6} { // ns: sub-µs to ms
		var h hist
		vs := make([]float64, 200000)
		for i := range vs {
			v := math.Floor(scale * math.Exp(r.NormFloat64()*0.6))
			vs[i] = v
			h.record(int64(v))
		}
		sort.Float64s(vs)
		for _, q := range []float64{0.25, 0.5, 0.9, 0.99, 0.999} {
			got, want := h.quantile(q), exact(vs, q)
			if math.Abs(got-want) > 0.01*want+1 {
				t.Errorf("scale %g q %g: hist %g, sorted slice %g", scale, q, got, want)
			}
		}
	}
	var h hist
	if h.quantile(0.5) != 0 {
		t.Error("empty histogram must read 0")
	}
	for _, v := range []int64{-5, 0, 1, 255, 256, 257, 1 << 41} {
		if b := bucketOf(v); b < 0 || b >= histBuckets {
			t.Errorf("bucketOf(%d) = %d out of range", v, b)
		}
	}
}

func TestSliceP99IgnoresOneBadSlice(t *testing.T) {
	slices := make([]hist, nSlices)
	for i := range slices {
		for k := 0; k < 1000; k++ {
			v := int64(1000 + k) // p99 ≈ 1990
			if i == 3 && k >= 700 {
				v = 5e6 // one slice hit by a stall
			}
			slices[i].record(v)
		}
	}
	got := sliceP99(slices)
	if got < 1950 || got > 2010 {
		t.Errorf("median of slice p99s = %g, want ≈ 1990", got)
	}
	var all hist
	for i := range slices {
		all.merge(&slices[i])
	}
	if whole := all.quantile(0.99); whole < 2*got {
		t.Errorf("the whole-window p99 (%g) should show the stall the sliced one (%g) ignores", whole, got)
	}
	if sliceP99(make([]hist, nSlices)) != 0 {
		t.Error("slices without enough samples must read 0")
	}
}

func TestRecordingDoesNotAllocate(t *testing.T) {
	r := new(recorder)
	if n := testing.AllocsPerRun(1000, func() { r.record(12345, 2300, 1e6, true) }); n != 0 {
		t.Errorf("recorder.record allocates %v times", n)
	}
	// The whole measured loop around an operation that does nothing.
	w := measure([]op{{call: func(uint64) (int64, bool) { return 0, true }}}, 20*time.Millisecond, 100*time.Millisecond)
	if w.ops < 1000 {
		t.Fatalf("only %d no-op operations in 100 ms", w.ops)
	}
	if per := float64(w.mallocs) / float64(w.ops); per > 0.001 {
		t.Errorf("the measured loop allocates %g times per operation (%d in %d)", per, w.mallocs, w.ops)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := genRPCData(11), genRPCData(11), genRPCData(12)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different payloads")
	}
	if reflect.DeepEqual(a.arrays, c.arrays) || reflect.DeepEqual(a.dirs, c.dirs) || reflect.DeepEqual(a.blobs, c.blobs) {
		t.Error("different seeds, same payloads")
	}
	if syntheticIDL(11) != syntheticIDL(11) {
		t.Error("same seed, different synthetic IDL")
	}
	if syntheticIDL(11) == syntheticIDL(12) {
		t.Error("different seeds, same synthetic IDL")
	}
	ua, err := buildUnits(testRoot, 11)
	if err != nil {
		t.Fatal(err)
	}
	ub, _ := buildUnits(testRoot, 11)
	if len(ua) < 140 || len(ua) != len(ub) {
		t.Fatalf("%d and %d units", len(ua), len(ub))
	}
	golden := 0
	for i := range ua {
		if ua[i].label != ub[i].label || ua[i].src != ub[i].src {
			t.Fatalf("unit %d differs between two builds of one seed", i)
		}
		if ua[i].golden != "" {
			golden++
		}
	}
	if golden < 20 {
		t.Errorf("only %d units carry a committed reference file", golden)
	}
}

func TestSpanPairingAndSelfTime(t *testing.T) {
	// One call's stamps, in the order the goroutines make them.
	var r callRec
	for i, f := range []interface{ Store(int64) }{
		&r.entry, &r.marshal0, &r.marshal1, &r.cSend, &r.sRecv, &r.sUnm0, &r.sUnm1, &r.h0, &r.h1,
		&r.sMar0, &r.sMar1, &r.sSend, &r.cRecv, &r.ret, &r.unm1, &r.end,
	} {
		f.Store(int64(100 + 10*i*i)) // strictly increasing, uneven gaps
	}
	ph := r.phases()
	var sum int64
	for _, v := range ph {
		if v < 0 {
			t.Errorf("negative phase in %v", ph)
		}
		sum += int64(v)
	}
	if want := r.end.Load() - r.entry.Load(); sum != want {
		t.Errorf("phases sum to %d, the call took %d", sum, want)
	}

	spans := r.spans(nil, 42)
	self := selfTimes(spans)
	byName := map[string]int{}
	for i, s := range spans {
		byName[s.Name] = i
		if s.Call != 42 {
			t.Errorf("span %s belongs to call %d", s.Name, s.Call)
		}
		if s.Parent >= 0 && (s.Start < spans[s.Parent].Start || s.End > spans[s.Parent].End) {
			t.Errorf("span %s leaves its parent %s", s.Name, spans[s.Parent].Name)
		}
	}
	srv := byName["rt.server"]
	if spans[byName["handler"]].Parent != srv || spans[srv].Parent != byName["call"] {
		t.Error("handler → rt.server → call parent chain broken")
	}
	// The server's self time is what the three spans inside it leave:
	// header parse, queue and worker wake before; nothing after.
	wantSrv := (r.sSend.Load() - r.sRecv.Load()) - (r.sUnm1.Load() - r.sUnm0.Load()) -
		(r.h1.Load() - r.h0.Load()) - (r.sMar1.Load() - r.sMar0.Load())
	if self[srv] != wantSrv {
		t.Errorf("rt.server self time %d, want %d", self[srv], wantSrv)
	}

	// Overlapping children count once; a child past its parent is clipped.
	tree := []span{
		{"p", 0, 100, -1, 0},
		{"a", 10, 40, 0, 0},
		{"b", 30, 60, 0, 0},
		{"c", 90, 130, 0, 0},
		{"leaf", 12, 20, 1, 0},
	}
	if got := selfTimes(tree); !reflect.DeepEqual(got, []int64{40, 22, 30, 40, 8}) {
		t.Errorf("selfTimes = %v", got)
	}

	// typicalPhases: means over the middle of the distribution add up
	// to the median call.
	rows := make([][nPhases]int32, 0, 1000)
	for i := 0; i < 1000; i++ {
		row := [nPhases]int32{0: 100, 2: int32(1000 + i)}
		if i%50 == 0 {
			row[2] = 1e6
		}
		rows = append(rows, row)
	}
	typ := typicalPhases(rows)
	if typ[0] != 100 || math.Abs(typ[2]-1500) > 25 {
		t.Errorf("typical phases %v", typ[:3])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := &metricDef{Name: "latency_p50_us", Better: "lower"}
	higher := &metricDef{Name: "ops_per_s", Better: "higher"}
	floored := &metricDef{Name: "allocs_per_op", Better: "lower", Floor: 0.25}
	mk := func(vs ...float64) series { return series{Median: median(append([]float64(nil), vs...)), Runs: vs} }
	for _, tc := range []struct {
		def        *metricDef
		bound      float64
		base, cand series
		want       string
	}{
		{lower, 0.08, mk(100, 101, 99, 100, 100), mk(112, 113, 111, 112, 112), "REGRESSION"},
		{lower, 0.25, mk(100, 101, 99, 100, 100), mk(112, 113, 111, 112, 112), "unchanged"},
		{lower, 0.08, mk(100, 101, 99, 100, 100), mk(104, 103, 105, 104, 104), "unchanged"},
		{lower, 0.08, mk(100, 101, 99, 100, 100), mk(80, 81, 79, 80, 80), "improved"},
		{higher, 0.08, mk(100, 101, 99, 100, 100), mk(88, 89, 87, 88, 88), "REGRESSION"},
		{higher, 0.08, mk(100, 101, 99, 100, 100), mk(120, 121, 119, 120, 120), "improved"},
		// Spread wider than the bound: not "unchanged", unless every run is better.
		{lower, 0.08, mk(100, 130, 80, 100, 120), mk(101, 131, 81, 101, 121), "unresolved"},
		{lower, 0.08, mk(100, 130, 90, 100, 120), mk(50, 60, 45, 50, 70), "improved"},
		// 2 → 2.2 allocations is 10 % but below the absolute floor; 2 → 3 is not.
		{floored, 0.02, mk(2), mk(2.2), "unchanged"},
		{floored, 0.02, mk(2), mk(3), "REGRESSION"},
		{&failedShare, 0, mk(0), mk(0.001), "REGRESSION"},
		{&failedShare, 0, mk(0), mk(0), "unchanged"},
		{lower, 0.08, mk(100), series{}, "MISSING"},
	} {
		if _, got := verdict(tc.def, tc.bound, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.def.Name, tc.base.Runs, tc.cand.Runs, got, tc.want)
		}
	}
}

// A candidate file without one of the reference's workloads, or without
// one of its metrics, does not compare clean.
func TestCompareFailsOnMissing(t *testing.T) {
	mk := func(names ...string) *resultFile {
		rf := &resultFile{Workloads: map[string]*workloadResult{}}
		for _, n := range names {
			wr := &workloadResult{EndToEnd: map[string]series{failedShare.Name: {Runs: []float64{0}}}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = series{Median: 1, Runs: []float64{1}}
			}
			rf.Workloads[n] = wr
		}
		return rf
	}
	full := mk("call_pipe", "call_tcp")
	if got := compareResults(full, mk("call_pipe", "call_tcp")); got != 0 {
		t.Errorf("identical files: exit %d", got)
	}
	if got := compareResults(full, mk("call_pipe")); got != 1 {
		t.Errorf("candidate without call_tcp: exit %d", got)
	}
	short := mk("call_pipe", "call_tcp")
	delete(short.Workloads["call_tcp"].EndToEnd, "cpu_us_per_op")
	if got := compareResults(full, short); got != 1 {
		t.Errorf("candidate without call_tcp's cpu_us_per_op: exit %d", got)
	}
	if got := compareResults(mk("call_pipe"), full); got != 0 {
		t.Errorf("a workload only the candidate has: exit %d", got)
	}
}

// Every widened bound names a workload and an end-to-end metric, and is
// wider than the default it replaces.
func TestWidenedBoundsNameMetrics(t *testing.T) {
	for w, byMetric := range widened {
		if !isWorkload(w) {
			t.Errorf("widened names no workload %q", w)
		}
		for name, b := range byMetric {
			found := false
			for i := range endToEnd {
				if d := &endToEnd[i]; d.Name == name {
					found = true
					if b <= d.Gate || gateFor(d, w) != b {
						t.Errorf("%s @ %s: widened to %g from %g", name, w, b, d.Gate)
					}
				}
			}
			if !found {
				t.Errorf("widened[%s] names no end-to-end metric %q", w, name)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver
// reads, identical to the tables this package measures by.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Workloads, workloads) {
		t.Errorf("workloads differ:\n%v\n%v", b.Workloads, workloads)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics in the file, %d and %d here",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		if g := b.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, g, d)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// smoke runs one workload for a 200 ms window, in process. A traced
// run must leave a Chrome trace file that parses.
func smoke(t *testing.T, workload string, trace, sabotage bool) *result {
	t.Helper()
	cfg := &runConfig{
		workload: workload, root: testRoot, seed: 5, seconds: 0.2, trace: trace, sabotage: sabotage,
		traceOut: t.TempDir() + "/trace.json", started: time.Now(),
	}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if trace && workload != "fabric_tcp" && !sabotage {
		var file struct {
			TraceEvents []struct {
				Name string
				Dur  float64
			}
		}
		data, err := os.ReadFile(cfg.traceOut)
		if err == nil {
			err = json.Unmarshal(data, &file)
		}
		if err != nil || len(file.TraceEvents) == 0 {
			t.Errorf("%s: trace file: %d events, %v", workload, len(file.TraceEvents), err)
		}
	}
	return res
}

func TestSmokeEveryMetricPresent(t *testing.T) {
	for _, w := range workloads {
		res := smoke(t, w.Name, false, false)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s: %s = %v (present %v); end-to-end metrics are never 0", w.Name, d.Name, v, ok)
			}
		}

		res = smoke(t, w.Name, true, false)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", w.Name, res.Correct, res.Failed)
		}
		for i := range perLayer {
			d := &perLayer[i]
			v, ok := res.Metrics[d.Name]
			if !ok || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s traced: %s = %v (present %v)", w.Name, d.Name, v, ok)
			}
			if !d.on(w.Name) && v != 0 {
				t.Errorf("%s traced: %s = %v on a workload it is not assigned to", w.Name, d.Name, v)
			}
		}
		for _, name := range []string{"interp.oracle_mismatches", "verify.findings", "rt.pool.unbalanced"} {
			if v := res.Metrics[name]; v != 0 {
				t.Errorf("%s traced: %s = %v, must be 0", w.Name, name, v)
			}
		}
		if w.Name == "call_pipe" || w.Name == "call_tcp" {
			var sum float64
			for _, name := range phaseNames {
				sum += res.Metrics[name]
			}
			if p50 := res.Metrics["trace.latency_p50_us"]; math.Abs(sum-p50) > 0.10*p50 {
				t.Errorf("%s: phases sum to %.2f us, the traced call's median is %.2f us", w.Name, sum, p50)
			}
		}
	}
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res := smoke(t, "call_pipe", trace, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("trace=%v: a handler answering wrongly left correct=%v failed=%d", trace, res.Correct, res.Failed)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	res := &result{Correct: true, Attempted: 10, Metrics: map[string]float64{}}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = 1.5
	}
	var got struct {
		Correct   *bool                     `json:"correct"`
		Attempted *uint64                   `json:"attempted"`
		Failed    *uint64                   `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	line := resultLine(res, false)
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	_ = json.Unmarshal([]byte(line), &keys)
	if len(keys) != 4 || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Errorf("result line keys: %s", line)
	}
	if len(got.Metrics) != len(endToEnd) || got.Metrics["setup_s"]["unit"] != "s" {
		t.Errorf("result line metrics: %s", line)
	}
}
