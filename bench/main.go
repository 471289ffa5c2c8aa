// Command bench is the repository's benchmark: six closed-loop
// workloads on real transports, measured end to end with tracing off
// and attributed layer by layer in a separate traced run. README.md in
// this directory names every workload and metric.
//
//	go run -C bench .                         all six workloads → a result file
//	go run -C bench . compare A.json B.json   apply each metric's bound
//	bash bench/run.sh --workload call_tcp --seed 1 --seconds 15 --trace 0
//
// The last form is one run of one workload, as the driver named in
// BENCHMARK.json makes it: it prints one JSON object as its last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	started := time.Now()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	cfg := &runConfig{started: started}
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload and print its result line (default: the whole suite)")
	fs.StringVar(&cfg.root, "root", "", "repository root (default: found from the working directory)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every payload byte and of the synthetic IDL")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the spans to this Chrome trace_event file")
	fs.BoolVar(&cfg.sabotage, "sabotage", false, "self-test: the Sum handler answers wrongly, so the run must fail")
	suite := &suiteConfig{}
	fs.IntVar(&suite.runs, "runs", 1, "suite: runs of each workload; the result file keeps every run and the median")
	fs.StringVar(&suite.out, "o", "", "suite: result file (default <root>/.bench_build/result.json)")
	_ = fs.Parse(os.Args[1:])
	cfg.trace = *trace != 0

	// The workloads are defined on two callers and a server sharing two
	// CPUs; on one they would measure the scheduler instead.
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "bench: GOMAXPROCS is below 2; the workloads need a caller and a server running side by side")
		os.Exit(2)
	}
	var err error
	if cfg.root, err = findRoot(cfg.root); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if cfg.workload == "" {
		os.Exit(suiteMain(cfg, suite))
	}

	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, n)
	}
	fmt.Fprintf(os.Stderr, "%s: wall %.1fs\n", cfg.workload, time.Since(started).Seconds())
	fmt.Println(resultLine(res, cfg.trace))
	if !res.Correct {
		os.Exit(1)
	}
}

// resultLine renders a run as the one JSON object the driver reads.
func resultLine(res *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // every value above is a finite number or a string
	}
	return string(line)
}

// findRoot returns the directory holding the flick module: the given
// one, or the nearest parent of the working directory that has it.
func findRoot(given string) (string, error) {
	isRoot := func(dir string) bool {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		return err == nil && strings.HasPrefix(string(data), "module flick\n")
	}
	if given != "" {
		if !isRoot(given) {
			return "", fmt.Errorf("%s does not hold the flick module", given)
		}
		return given, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for ; ; dir = filepath.Dir(dir) {
		if isRoot(dir) {
			return dir, nil
		}
		if dir == filepath.Dir(dir) {
			return "", fmt.Errorf("no flick module above the working directory; pass -root")
		}
	}
}
