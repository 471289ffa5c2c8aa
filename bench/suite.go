package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// suiteConfig is the whole-suite command line.
type suiteConfig struct {
	runs int
	out  string
}

// traceSeconds is the length of each traced run the suite makes.
const traceSeconds = 4

// provenance says where a result file's numbers came from.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"GOMAXPROCS"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	StartedAt  string  `json:"started_at"`
}

// metricInfo is a metric's definition as the result file carries it.
type metricInfo struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // compare's default; metrics.go widens some per workload
	Floor  float64 `json:"floor,omitempty"`
	Layer  bool    `json:"per_layer,omitempty"`
}

// series is one metric on one workload: every run's value and their
// median. Only numbers; the unit and direction are in metricInfo.
type series struct {
	Median float64   `json:"median"`
	Runs   []float64 `json:"runs"`
}

type workloadResult struct {
	Callers   int               `json:"callers"`
	WallS     float64           `json:"wall_s"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Metrics    map[string]metricInfo      `json:"metrics"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func metricInfos() map[string]metricInfo {
	out := map[string]metricInfo{failedShare.Name: {Unit: failedShare.Unit, Better: failedShare.Better}}
	for _, d := range endToEnd {
		out[d.Name] = metricInfo{Unit: d.Unit, Better: d.Better, Bound: d.Gate, Floor: d.Floor}
	}
	for _, d := range perLayer {
		out[d.Name] = metricInfo{Unit: d.Unit, Better: d.Better, Layer: true}
	}
	return out
}

func gitOutput(root string, args ...string) string {
	out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// childRun runs one workload once in a child process of this same
// binary and parses its result line.
func childRun(cfg *runConfig, workload string, seconds float64, traced bool, traceOut string) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-root", cfg.root, "-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	if cfg.sabotage {
		args = append(args, "-sabotage")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

type childResult struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func addRun(dst map[string]series, name string, v float64) {
	s := dst[name]
	s.Runs = append(s.Runs, v)
	s.Median = median(append([]float64(nil), s.Runs...))
	dst[name] = s
}

// suiteMain runs every workload, each run in its own process, prints
// every metric by name with its unit and writes the result file. The
// exit code is non-zero when any operation failed or answered wrongly.
func suiteMain(cfg *runConfig, sc *suiteConfig) int {
	root := cfg.root
	outDir := filepath.Join(root, ".bench_build")
	if sc.out == "" {
		sc.out = filepath.Join(outDir, "result.json")
	}
	rf := &resultFile{
		Provenance: provenance{
			Commit: gitOutput(root, "rev-parse", "HEAD"), Dirty: gitOutput(root, "status", "--porcelain") != "",
			Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPUModel: cpuModel(),
			Seed: cfg.seed, WindowS: cfg.seconds,
			StartedAt: cfg.started.UTC().Format(time.RFC3339),
		},
		Metrics:   metricInfos(),
		Workloads: map[string]*workloadResult{},
	}
	if rf.Provenance.Commit == "" {
		rf.Provenance.Commit = "unknown"
	}
	bad := false
	for _, w := range workloads {
		t0 := time.Now()
		wr := &workloadResult{Callers: 1, EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
		if s, ok := rpcSpecs[w.Name]; ok {
			wr.Callers = callersFor(s.callers)
		}
		rf.Workloads[w.Name] = wr
		for run := 0; run < sc.runs; run++ {
			e2e, err := childRun(cfg, w.Name, cfg.seconds, false, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			wr.Attempted += e2e.Attempted
			wr.Failed += e2e.Failed
			for _, d := range endToEnd {
				addRun(wr.EndToEnd, d.Name, e2e.Metrics[d.Name].Value)
			}
			addRun(wr.EndToEnd, failedShare.Name, float64(e2e.Failed)/float64(e2e.Attempted))
			traceOut := filepath.Join(outDir, "trace-"+w.Name+".json")
			layers, err := childRun(cfg, w.Name, traceSeconds, true, traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			for i := range perLayer {
				if d := &perLayer[i]; d.on(w.Name) {
					addRun(wr.PerLayer, d.Name, layers.Metrics[d.Name].Value)
				}
			}
			bad = bad || !e2e.Correct || !layers.Correct
		}
		wr.WallS = time.Since(t0).Seconds()
		printWorkload(w.Name, wr, rf.Metrics)
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(sc.out), 0o755); err == nil {
			err = os.WriteFile(sc.out, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("result file: %s (suite wall %.0fs)\n", sc.out, time.Since(cfg.started).Seconds())
	if bad {
		fmt.Fprintln(os.Stderr, "bench: operations failed or answered wrongly")
		return 1
	}
	return 0
}

func printWorkload(name string, wr *workloadResult, infos map[string]metricInfo) {
	fmt.Printf("== %s  (%d callers, wall %.1fs, %d attempted, %d failed)\n", name, wr.Callers, wr.WallS, wr.Attempted, wr.Failed)
	for _, group := range []map[string]series{wr.EndToEnd, wr.PerLayer} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-40s %16.6g %s\n", n, group[n].Median, infos[n].Unit)
		}
	}
}

// --- compare ----------------------------------------------------------------------------

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	vs := append([]float64(nil), values...)
	sort.Float64s(vs)
	n := len(vs)
	if n < 2 {
		return vs[0], vs[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (vs[j-1]*(4-delta) + vs[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is a series' inter-quartile distance as a share of its
// median; 0 when fewer than two runs were recorded.
func (s series) spread() float64 {
	if len(s.Runs) < 2 || s.Median == 0 {
		return 0
	}
	q1, q3 := quartiles(s.Runs)
	return (q3 - q1) / s.Median
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict compares metric def on one workload under bound: base is the
// reference (A), cand the candidate (B). worse is the share of the
// reference's median by which the candidate reads worse.
func verdict(def *metricDef, bound float64, base, cand series) (worse float64, status string) {
	if len(cand.Runs) == 0 {
		return 0, "MISSING"
	}
	diff := cand.Median - base.Median
	if def.Better == "higher" {
		diff = -diff
	}
	if base.Median != 0 {
		worse = diff / base.Median
	} else if diff != 0 {
		worse = diff / math.Abs(diff)
	}
	if def == &failedShare {
		if diff > 0 {
			return worse, "REGRESSION"
		}
		return worse, "unchanged"
	}
	noisy := base.spread() > bound || cand.spread() > bound
	switch {
	case worse > bound && diff > def.Floor:
		return worse, "REGRESSION"
	case noisy && !allBetter(def, base, cand):
		return worse, "unresolved"
	case worse < -bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// allBetter reports whether every run of cand reads better than every
// run of base.
func allBetter(def *metricDef, base, cand series) bool {
	for _, c := range cand.Runs {
		for _, b := range base.Runs {
			if (def.Better == "lower" && c >= b) || (def.Better == "higher" && c <= b) {
				return false
			}
		}
	}
	return true
}

// compareMain prints one row per workload × end-to-end metric and
// returns 1 on a regression, a higher failed_share, or a workload or
// metric of A that B does not have.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json   (A is the reference)")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b *resultFile
		if b, err = readResult(args[1]); err == nil {
			return compareResults(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(a, b *resultFile) int {
	fmt.Printf("A: %s%s  B: %s%s\n", a.Provenance.Commit, dirtyMark(a), b.Provenance.Commit, dirtyMark(b))
	fmt.Printf("%-12s %-16s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "spread", "verdict")
	bad := false
	var defs []*metricDef
	for i := range endToEnd {
		defs = append(defs, &endToEnd[i])
	}
	defs = append(defs, &failedShare)
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil {
			continue // nothing to hold B against
		}
		if wb == nil {
			fmt.Printf("%-12s B has no such workload  MISSING\n", w.Name)
			bad = true
			continue
		}
		for _, def := range defs {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if len(sa.Runs) == 0 {
				continue
			}
			bound := gateFor(def, w.Name)
			worse, status := verdict(def, bound, sa, sb)
			spread := math.Max(sa.spread(), sb.spread())
			fmt.Printf("%-12s %-16s %14.6g %14.6g %+8.1f%% %7.0f%% %7.1f%%  %s\n",
				w.Name, def.Name, sa.Median, sb.Median, worse*100, bound*100, spread*100, status)
			bad = bad || status == "REGRESSION" || status == "MISSING"
		}
	}
	if bad {
		return 1
	}
	return 0
}

func dirtyMark(rf *resultFile) string {
	if rf.Provenance.Dirty {
		return "+dirty"
	}
	return ""
}
