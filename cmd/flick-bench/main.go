// Command flick-bench regenerates the tables and figures of the paper's
// evaluation (Section 4). Each experiment prints the same rows/series the
// paper reports, measured with this repository's generated stubs on the
// current host (absolute numbers differ from 1997 hardware; the shape —
// who wins and by roughly what factor — is the reproduction target).
//
//	flick-bench -exp fig3      # marshal throughput, all three workloads
//	flick-bench -exp fig4      # end-to-end, 10Mbps Ethernet model
//	flick-bench -exp fig5      # end-to-end, 100Mbps Ethernet model
//	flick-bench -exp fig6      # end-to-end, 640Mbps Myrinet model
//	flick-bench -exp fig7      # MIG vs Flick over Mach IPC
//	flick-bench -exp table2    # generated stub code sizes
//	flick-bench -exp table3    # tested compiler matrix
//	flick-bench -exp ablation  # §3 optimization ablations
//	flick-bench -exp rpcstats  # runtime metrics of a loopback RPC workload
//	flick-bench -exp checks    # space checks executed per message, by stub style
//	flick-bench -exp pipeline  # throughput vs in-flight depth, multiplexed client
//	flick-bench -exp chaos     # chaos soak: faults vs retries/redials; wrong answers must be 0
//	flick-bench -exp fleet     # scale-out fabric: 1k-100k simulated clients, pool+batch+admission
//	flick-bench -exp trace     # tracing overhead at 0%/1%/100% sampling + tree completeness
//	flick-bench -exp stream    # server-push stream goodput: chunk size x credit window sweep
//	flick-bench -exp zerocopy  # zero-copy bulk transfer: writev vs flatten across payload sizes
//	flick-bench -exp hedge     # hedged requests: bimodal latency, p99 with hedging off/on
//	flick-bench -exp drain     # rolling restart: lameduck drain under load, loss accounting
//	flick-bench -exp all
//
// -json emits each report as a machine-readable JSON document instead
// of the aligned table (committed as BENCH_<exp>.json). -short runs the
// reduced, CI-sized sweeps of fleet and drain. -debug-addr serves the
// runtime debug surface (rt.Debug) over HTTP while experiments run: hit
// / for the text dump, /metrics or /delta for counters, /trace for a
// Chrome trace_event export of recent sampled spans.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"flick/internal/experiment"
	"flick/rt"
)

// reports are one experiment's report functions, run in order.
type reports = []func() *experiment.Report

// experiments lists every -exp, in the order -exp all runs them.
var experiments = []struct {
	name        string
	full, short reports // short: the reduced sweep -short selects; nil where there is none
}{
	{"table3", reports{experiment.Table3}, nil},
	{"table2", reports{experiment.Table2}, nil},
	{"fig3", reports{fig3(experiment.Ints), fig3(experiment.Rects), fig3(experiment.Dirs)}, nil},
	{"fig4", reports{experiment.Fig4}, nil},
	{"fig5", reports{experiment.Fig5}, nil},
	{"fig6", reports{experiment.Fig6}, nil},
	{"fig7", reports{experiment.Fig7}, nil},
	{"ablation", reports{experiment.Ablation}, nil},
	{"checks", reports{experiment.CheckCounts}, nil},
	{"rpcstats", reports{experiment.RPCStats}, nil},
	{"pipeline", reports{experiment.Pipeline}, nil},
	{"chaos", reports{experiment.Chaos, experiment.StreamChaos}, nil},
	{"fleet", reports{experiment.Fleet}, reports{experiment.FleetShort}},
	{"trace", reports{experiment.Trace}, nil},
	{"stream", reports{experiment.Stream}, nil},
	{"zerocopy", reports{experiment.ZeroCopy}, nil},
	{"hedge", reports{experiment.Hedge}, nil},
	{"drain", reports{experiment.Drain}, reports{experiment.DrainShort}},
}

func fig3(w experiment.Workload) func() *experiment.Report {
	return func() *experiment.Report { return experiment.Fig3(w) }
}

func main() {
	var names, shortNames []string
	for _, e := range experiments {
		names = append(names, e.name)
		if e.short != nil {
			shortNames = append(shortNames, e.name)
		}
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, ", ")+", or all")
	asJSON := flag.Bool("json", false, "emit reports as JSON documents instead of aligned tables")
	short := flag.Bool("short", false, "run the reduced, CI-sized sweeps of "+strings.Join(shortNames, " and "))
	debugAddr := flag.String("debug-addr", "", "serve the runtime debug surface over HTTP on this address (e.g. localhost:6060) while experiments run")
	flag.Parse()

	if *debugAddr != "" {
		dbg := rt.NewDebug(rt.DebugConfig{})
		experiment.Debug = dbg
		go func() {
			fmt.Fprintf(os.Stderr, "flick-bench: debug surface on http://%s/\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				fmt.Fprintf(os.Stderr, "flick-bench: debug surface: %v\n", err)
			}
		}()
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		run := e.full
		if *short && e.short != nil {
			run = e.short
		}
		for _, report := range run {
			if r := report(); *asJSON {
				fmt.Println(r.JSON())
			} else {
				fmt.Println(r)
			}
		}
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "flick-bench: unknown experiment %q (want %s, or all)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}
