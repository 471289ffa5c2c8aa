// Command flick-stats demonstrates the runtime observability layer: it
// runs a loopback RPC workload (the Bench interface from the test IDL,
// served over an in-process pipe) with rt.Metrics attached to both the
// client and the server, then dumps the metric registries.
//
//	flick-stats                 # text exposition (flick_* lines)
//	flick-stats -json           # JSON snapshots
//	flick-stats -trace out.json # also write every call's span tree (Chrome trace_event JSON)
//	flick-stats -rounds 1000 -payload 65536
package main

import (
	"flag"
	"fmt"
	"os"

	ts "flick/internal/teststubs"
	"flick/rt"
)

type impl struct{ dirs []ts.BenchDirEntry }

func (i *impl) SendInts(v []int32) error            { return nil }
func (i *impl) SendRects(v []ts.BenchRect) error    { return nil }
func (i *impl) SendDirs(v []ts.BenchDirEntry) error { i.dirs = v; return nil }
func (i *impl) Ping(nonce int32) error              { return nil }
func (i *impl) Sum(v []int32) (int32, error) {
	if len(v) == 0 {
		return 0, &ts.BenchBadSize{Wanted: 1}
	}
	var s int32
	for _, x := range v {
		s += x
	}
	return s, nil
}
func (i *impl) ListDir(path string) ([]ts.BenchDirEntry, int32, error) {
	return i.dirs, int32(len(i.dirs)), nil
}

func main() {
	rounds := flag.Int("rounds", 100, "workload rounds (each round is 5 calls)")
	payload := flag.Int("payload", 4096, "encoded payload bytes per array argument")
	asJSON := flag.Bool("json", false, "dump JSON snapshots instead of text exposition")
	traceFile := flag.String("trace", "", "sample every call and write the spans of both ends to this `file` as Chrome trace_event JSON")
	flag.Parse()

	serverMetrics := rt.NewMetrics()
	clientMetrics := rt.NewMetrics()

	clientEnd, serverEnd := rt.Pipe()
	srv := rt.NewServer(rt.ONC{})
	srv.Metrics = serverMetrics
	var tracer *rt.Tracer
	if *traceFile != "" {
		tracer = &rt.Tracer{SampleRate: 1}
		srv.Tracer = tracer
	}
	ts.RegisterBenchXDR(srv, &impl{})
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeConn(serverEnd) }()

	c := ts.NewBenchXDRClient(clientEnd)
	c.C.Metrics = clientMetrics
	c.C.Tracer = tracer

	ints := make([]int32, *payload/4)
	for i := range ints {
		ints[i] = int32(i)
	}
	dirs := makeDirs(*payload)
	for i := 0; i < *rounds; i++ {
		must(c.SendInts(ints))
		must(c.SendDirs(dirs))
		if _, err := c.Sum(ints); err != nil {
			fatal(err)
		}
		if _, _, err := c.ListDir("/tmp"); err != nil {
			fatal(err)
		}
		must(c.Ping(int32(i)))
	}
	clientEnd.Close()
	<-done
	if tracer != nil {
		must(writeTrace(*traceFile, tracer))
	}

	if *asJSON {
		dumpJSON("client", clientMetrics)
		dumpJSON("server", serverMetrics)
		return
	}
	fmt.Println("# client")
	clientMetrics.Snapshot().WriteTo(os.Stdout)
	fmt.Println("# server")
	serverMetrics.Snapshot().WriteTo(os.Stdout)
}

func makeDirs(bytes int) []ts.BenchDirEntry {
	const nameLen = 116 // one entry encodes to exactly 256 bytes
	v := make([]ts.BenchDirEntry, bytes/256)
	name := make([]byte, nameLen)
	for i := range v {
		for j := range name {
			name[j] = byte('a' + (i+j)%26)
		}
		v[i].Name = string(name)
	}
	return v
}

func writeTrace(path string, tracer *rt.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func dumpJSON(label string, m *rt.Metrics) {
	data, err := m.Snapshot().JSON()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("{\"side\":%q,\"metrics\":%s}\n", label, data)
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flick-stats:", err)
	os.Exit(1)
}
