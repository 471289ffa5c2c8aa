package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"flick/internal/frontend/corbaidl"
	"flick/internal/interp"
	"flick/internal/pgen"
	"flick/internal/presc"
	ts "flick/internal/teststubs"
	"flick/internal/wire"
	zc "flick/internal/zcstubs"
	"flick/rt"
)

// Workload parameters fixed by the benchmark definition.
const (
	sumInts     = 16  // ints per Sum argument (64 B)
	sumArrays   = 64  // seeded argument arrays, cycled
	dirEntries  = 256 // ListDir reply entries, 256 B each on the wire
	blobBytes   = 256 << 10
	blobCount   = 4  // seeded blobs, cycled
	fabricDepth = 16 // CallAsync window per fabric caller
	setupCalls  = 64 // calls through the counting conn for out_kb_per_op
)

// stubSet is one workload's generated marshal code behind a uniform
// shape, so the traced call, the traced dispatch and the standalone
// stub probes can drive Sum, ListDir and Put alike. Each closure works
// on state private to the set: one caller and one server worker use
// it at a time.
type stubSet struct {
	proc uint32
	op   string
	idem bool
	// Client side: marshal operation k's request; decode its reply and
	// check the answer.
	marshalReq   func(e *rt.Encoder, k uint64)
	unmarshalRep func(d *rt.Decoder, k uint64) bool
	// Server side, as the generated dispatcher does it: decode the
	// arguments, run the handler, encode the results.
	unmarshalReq func(d *rt.Decoder) error
	handle       func()
	marshalRep   func(e *rt.Encoder)
}

// rpcData is everything a workload derives from the seed.
type rpcData struct {
	arrays [sumArrays][]int32
	sums   [sumArrays]int32
	path   string
	dirs   []ts.BenchDirEntry
	blobs  [blobCount][]byte
	names  [blobCount]string
}

func genRPCData(seed int64) *rpcData {
	r := rand.New(rand.NewSource(seed))
	d := &rpcData{}
	for i := range d.arrays {
		v := make([]int32, sumInts)
		for j := range v {
			v[j] = r.Int31() - 1<<30
			d.sums[i] += v[j]
		}
		d.arrays[i] = v
	}
	d.path = fmt.Sprintf("/export/%08x", r.Uint32())
	d.dirs = make([]ts.BenchDirEntry, dirEntries)
	for i := range d.dirs {
		// 113..116 name bytes pad to 116: 4 + 116 + 136 = 256 B per entry.
		name := make([]byte, 113+r.Intn(4))
		for j := range name {
			name[j] = byte('a' + r.Intn(26))
		}
		d.dirs[i].Name = string(name)
		for j := range d.dirs[i].Info.Fields {
			d.dirs[i].Info.Fields[j] = r.Int31()
		}
		r.Read(d.dirs[i].Info.Tag[:])
	}
	for i := range d.blobs {
		d.blobs[i] = make([]byte, blobBytes)
		r.Read(d.blobs[i])
		d.names[i] = fmt.Sprintf("blob-%d", i)
	}
	return d
}

// handlers implements the generated server interfaces. sabotage makes
// Sum answer wrongly (the self-test that a wrong answer fails the run).
type handlers struct {
	data     *rpcData
	sabotage bool
	puts     atomic.Uint64
	bad      atomic.Uint64 // server-side check failures
}

func (h *handlers) Sum(v []int32) (int32, error) {
	var s int32
	for _, x := range v {
		s += x
	}
	if h.sabotage {
		s++
	}
	return s, nil
}

func (h *handlers) ListDir(path string) ([]ts.BenchDirEntry, int32, error) {
	if path != h.data.path {
		h.bad.Add(1)
	}
	return h.data.dirs, int32(len(h.data.dirs)), nil
}

// Put answers the blob's length and full-compares 1 blob in 64. data
// is a view into the receive arena: it is not kept.
func (h *handlers) Put(name string, data []byte) (uint32, error) {
	if h.puts.Add(1)%deepEvery == 0 {
		i := int(name[len(name)-1] - '0')
		if i < 0 || i >= blobCount || !bytes.Equal(data, h.data.blobs[i]) {
			h.bad.Add(1)
		}
	}
	return uint32(len(data)), nil
}

func (h *handlers) Get(string) ([]byte, error)        { return nil, rt.ErrNoSuchOp }
func (h *handlers) SendInts([]int32) error            { return rt.ErrNoSuchOp }
func (h *handlers) SendRects([]ts.BenchRect) error    { return rt.ErrNoSuchOp }
func (h *handlers) SendDirs([]ts.BenchDirEntry) error { return rt.ErrNoSuchOp }
func (h *handlers) Ping(int32) error                  { return nil }

// checkDirs is the per-call ListDir check: count, total, first and
// last name, and one Fields word chosen by k.
func (d *rpcData) checkDirs(ret []ts.BenchDirEntry, total int32, k uint64) bool {
	n := len(d.dirs)
	if len(ret) != n || int(total) != n {
		return false
	}
	i, j := int(k%uint64(n)), int(k%30)
	return ret[0].Name == d.dirs[0].Name && ret[n-1].Name == d.dirs[n-1].Name &&
		ret[i].Info.Fields[j] == d.dirs[i].Info.Fields[j]
}

func sumStubs(d *rpcData, h *handlers) *stubSet {
	var args []int32
	var res int32
	return &stubSet{
		proc: 3, op: "sum", idem: true,
		marshalReq: func(e *rt.Encoder, k uint64) { ts.MarshalBenchSumXDRRequest(e, d.arrays[k%sumArrays]) },
		unmarshalRep: func(dec *rt.Decoder, k uint64) bool {
			ret, err := ts.UnmarshalBenchSumXDRReply(dec)
			return err == nil && ret == d.sums[k%sumArrays]
		},
		unmarshalReq: func(dec *rt.Decoder) (err error) { args, err = ts.UnmarshalBenchSumXDRRequest(dec); return },
		handle:       func() { res, _ = h.Sum(args) },
		marshalRep:   func(e *rt.Encoder) { ts.MarshalBenchSumXDRReply(e, res) },
	}
}

func dirStubs(d *rpcData, h *handlers) *stubSet {
	var path string
	var res []ts.BenchDirEntry
	var total int32
	return &stubSet{
		proc: 4, op: "list_dir", idem: true,
		marshalReq: func(e *rt.Encoder, k uint64) { ts.MarshalBenchListDirXDRRequest(e, d.path) },
		unmarshalRep: func(dec *rt.Decoder, k uint64) bool {
			ret, tot, err := ts.UnmarshalBenchListDirXDRReply(dec)
			return err == nil && d.checkDirs(ret, tot, k)
		},
		unmarshalReq: func(dec *rt.Decoder) (err error) { path, err = ts.UnmarshalBenchListDirXDRRequest(dec); return },
		handle:       func() { res, total, _ = h.ListDir(path) },
		marshalRep:   func(e *rt.Encoder) { ts.MarshalBenchListDirXDRReply(e, res, total) },
	}
}

func putStubs(d *rpcData, h *handlers) *stubSet {
	var name string
	var data []byte
	var res uint32
	return &stubSet{
		proc: 1, op: "put",
		marshalReq: func(e *rt.Encoder, k uint64) {
			zc.MarshalStorePutRequest(e, d.names[k%blobCount], d.blobs[k%blobCount])
		},
		unmarshalRep: func(dec *rt.Decoder, k uint64) bool {
			ret, err := zc.UnmarshalStorePutReply(dec)
			return err == nil && ret == blobBytes
		},
		unmarshalReq: func(dec *rt.Decoder) (err error) { name, data, err = zc.UnmarshalStorePutRequest(dec); return },
		handle:       func() { res, _ = h.Put(name, data); data = nil },
		marshalRep:   func(e *rt.Encoder) { zc.MarshalStorePutReply(e, res) },
	}
}

// rpcSpec is the static description of one RPC workload.
type rpcSpec struct {
	name    string
	tcp     bool
	callers int
	// sharedConn multiplexes every caller on one connection (call_tcp);
	// otherwise each caller dials its own.
	sharedConn bool
	fabric     bool
	stubs      func(*rpcData, *handlers) *stubSet
	register   func(*rt.Server, *handlers)
	// caller builds the untraced closed-loop operation over the
	// generated client stubs.
	caller func(*rpcData, *rt.Client) op
}

var rpcSpecs = map[string]*rpcSpec{
	"call_pipe":   {name: "call_pipe", callers: 1, stubs: sumStubs, register: registerBench, caller: sumCaller},
	"call_tcp":    {name: "call_tcp", tcp: true, callers: 2, sharedConn: true, stubs: sumStubs, register: registerBench, caller: sumCaller},
	"fabric_tcp":  {name: "fabric_tcp", tcp: true, callers: 2, fabric: true, stubs: sumStubs, register: registerBench},
	"dirs_fetch":  {name: "dirs_fetch", tcp: true, callers: 2, stubs: dirStubs, register: registerBench, caller: dirCaller},
	"blob_put_zc": {name: "blob_put_zc", tcp: true, callers: 2, stubs: putStubs, register: registerStore, caller: putCaller},
}

func registerBench(s *rt.Server, h *handlers) { ts.RegisterBenchXDR(s, h) }
func registerStore(s *rt.Server, h *handlers) { zc.RegisterStore(s, h) }

func sumCaller(d *rpcData, c *rt.Client) op {
	cl := &ts.BenchXDRClient{C: c}
	return op{call: func(k uint64) (int64, bool) {
		ret, err := cl.Sum(d.arrays[k%sumArrays])
		return 0, err == nil && ret == d.sums[k%sumArrays]
	}}
}

func dirCaller(d *rpcData, c *rt.Client) op {
	cl := &ts.BenchXDRClient{C: c}
	var last []ts.BenchDirEntry
	return op{
		call: func(k uint64) (int64, bool) {
			ret, total, err := cl.ListDir(d.path)
			last = ret
			return 0, err == nil && d.checkDirs(ret, total, k)
		},
		deep: func() bool { return reflect.DeepEqual(last, d.dirs) },
	}
}

func putCaller(d *rpcData, c *rt.Client) op {
	cl := &zc.StoreClient{C: c}
	return op{call: func(k uint64) (int64, bool) {
		ret, err := cl.Put(d.names[k%blobCount], d.blobs[k%blobCount])
		return 0, err == nil && ret == blobBytes
	}}
}

// fabricCaller keeps fabricDepth CallAsync sums in flight on the pool
// and settles them in issue order; an operation's latency is issue →
// Wait return.
func fabricCaller(d *rpcData, pool *rt.ClientPool) op {
	type slot struct {
		p      *rt.Promise
		issued int64
		want   int32
	}
	var ring [fabricDepth]slot
	base := time.Now()
	n := uint64(0)
	issue := func(s *slot) {
		i := n % sumArrays
		n++
		v := d.arrays[i]
		s.want = d.sums[i]
		s.issued = int64(time.Since(base))
		s.p = pool.CallAsync(3, "sum", true, func(e *rt.Encoder) { ts.MarshalBenchSumXDRRequest(e, v) })
	}
	settle := func(s *slot) (int64, bool) {
		dec, err := s.p.Wait()
		lat := int64(time.Since(base)) - s.issued
		s.p = nil
		if err != nil {
			return lat, false
		}
		ret, err := ts.UnmarshalBenchSumXDRReply(dec)
		dec.Release()
		return lat, err == nil && ret == s.want
	}
	call := func(k uint64) (int64, bool) {
		if ring[0].p == nil { // first operation: fill the window
			for i := range ring {
				issue(&ring[i])
			}
		}
		s := &ring[k%fabricDepth]
		lat, ok := settle(s)
		issue(s)
		return lat, ok
	}
	drain := func() {
		for i := range ring {
			if ring[i].p != nil {
				settle(&ring[i])
			}
		}
	}
	return op{call: call, drain: drain}
}

// rpcEnv is one set-up instance of an RPC workload: server, clients,
// seeded data and what set-up measured.
type rpcEnv struct {
	spec     *rpcSpec
	data     *rpcData
	h        *handlers
	ops      []op
	closers  []func()
	payloadB float64 // encoded argument + result bytes per call
	reqFrame int     // request frame bytes at the rt.Conn seam
	repFrame int     // reply frame bytes
	oracleNo int     // stub bytes that differed from the interp oracle
}

func (env *rpcEnv) close() {
	for i := len(env.closers) - 1; i >= 0; i-- {
		env.closers[i]()
	}
}

// serveOn accepts on l and serves each connection through wrap, as
// rt.Server.Serve does, but returns a function that waits for every
// connection goroutine to end.
func serveOn(srv *rt.Server, l rt.Listener, wrap func(rt.Conn) rt.Conn) (stop func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := wrap(c)
				defer sc.Close()
				_ = srv.ServeConn(sc) // the peer closing mid-read is the normal end
			}()
		}
	}()
	return func() {
		l.Close()
		wg.Wait()
	}
}

func plain(c rt.Conn) rt.Conn { return c }

// link is a started server plus a way to connect to it.
type link struct {
	dial func() (rt.Conn, error)
	stop func()
}

// startServer starts srv on the spec's transport. wrap decorates each
// server-side connection.
func startServer(spec *rpcSpec, srv *rt.Server, wrap func(rt.Conn) rt.Conn) (*link, error) {
	if !spec.tcp {
		var wg sync.WaitGroup
		return &link{
			dial: func() (rt.Conn, error) {
				a, b := rt.Pipe()
				wg.Add(1)
				go func() {
					defer wg.Done()
					sc := wrap(b)
					defer sc.Close()
					_ = srv.ServeConn(sc)
				}()
				return a, nil
			},
			stop: wg.Wait,
		}, nil
	}
	l, err := rt.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr()
	return &link{
		dial: func() (rt.Conn, error) { return rt.DialTCP(addr) },
		stop: serveOn(srv, l, wrap),
	}, nil
}

func newServer(spec *rpcSpec) (*rt.Server, func(rt.Conn) rt.Conn) {
	srv := rt.NewServer(rt.ONC{})
	if !spec.fabric {
		return srv, plain
	}
	srv.Workers = 8
	srv.Admission = &rt.Admission{MaxLoad: 1024}
	return srv, func(c rt.Conn) rt.Conn { return rt.NewBatchConn(c, rt.BatchConfig{}) }
}

func fabricPool(lk *link, seed int64, m *rt.Metrics, under func(rt.Conn) rt.Conn) (*rt.ClientPool, error) {
	return rt.NewClientPool(rt.PoolConfig{
		Size:  2,
		Proto: rt.ONC{},
		Dial: func(int) (rt.Conn, error) {
			c, err := lk.dial()
			if err != nil {
				return nil, err
			}
			return under(c), nil
		},
		Batch:   &rt.BatchConfig{},
		Retry:   &rt.RetryPolicy{Seed: seed | 1},
		Metrics: m,
	})
}

// setupRPC builds the workload for one seed: data, oracle check,
// server, the frame-size probe and the callers' connections.
func setupRPC(spec *rpcSpec, root string, seed int64, sabotage bool) (*rpcEnv, error) {
	env := &rpcEnv{spec: spec, data: genRPCData(seed)}
	env.h = &handlers{data: env.data, sabotage: sabotage}
	ss := spec.stubs(env.data, env.h)

	var err error
	if env.oracleNo, err = oracleCheck(root, env.data); err != nil {
		return nil, err
	}
	var req, rep rt.Encoder
	ss.marshalReq(&req, 0)
	if err := ss.unmarshalReq(rt.NewDecoder(req.Bytes())); err != nil {
		return nil, fmt.Errorf("%s: request does not decode: %w", spec.name, err)
	}
	ss.handle()
	ss.marshalRep(&rep)
	env.payloadB = float64(req.Len() + rep.Len())

	srv, wrap := newServer(spec)
	spec.register(srv, env.h)
	lk, err := startServer(spec, srv, wrap)
	if err != nil {
		return nil, err
	}
	env.closers = append(env.closers, lk.stop)

	if err := env.probeFrames(lk, ss, seed); err != nil {
		env.close()
		return nil, err
	}

	if spec.fabric {
		pool, err := fabricPool(lk, seed, nil, plain)
		if err != nil {
			env.close()
			return nil, err
		}
		env.closers = append(env.closers, func() { pool.Close() })
		for i := 0; i < callersFor(spec.callers); i++ {
			env.ops = append(env.ops, fabricCaller(env.data, pool))
		}
		return env, nil
	}
	var shared *rt.Client
	for i := 0; i < callersFor(spec.callers); i++ {
		c := shared
		if c == nil {
			conn, err := lk.dial()
			if err != nil {
				env.close()
				return nil, err
			}
			c = rt.NewClient(conn, rt.ONC{})
			env.closers = append(env.closers, func() { c.Close() })
			if spec.sharedConn {
				shared = c
			}
		}
		env.ops = append(env.ops, spec.caller(env.data, c))
	}
	return env, nil
}

// probeFrames makes setupCalls sequential calls through a counting
// conn on the workload's own client stack and records the request and
// reply frame sizes. Sequential calls never share a batch frame, so
// the sizes repeat exactly.
func (env *rpcEnv) probeFrames(lk *link, ss *stubSet, seed int64) error {
	var cc *countConn
	count := func(c rt.Conn) rt.Conn {
		var w rt.Conn
		w, cc = wrapCount(c)
		return w
	}
	var call func(k uint64) (*rt.Decoder, error)
	marshal := func(k uint64) func(*rt.Encoder) { return func(e *rt.Encoder) { ss.marshalReq(e, k) } }
	if env.spec.fabric {
		pool, err := fabricPool(lk, seed, nil, count)
		if err != nil {
			return err
		}
		defer pool.Close()
		// Session 1's counter is the one kept; pin every call to it.
		one := pool.Client(pool.Len() - 1)
		call = func(k uint64) (*rt.Decoder, error) { return one.CallIdem(ss.proc, ss.op, false, ss.idem, marshal(k)) }
	} else {
		conn, err := lk.dial()
		if err != nil {
			return err
		}
		c := rt.NewClient(count(conn), rt.ONC{})
		defer c.Close()
		call = func(k uint64) (*rt.Decoder, error) { return c.CallIdem(ss.proc, ss.op, false, ss.idem, marshal(k)) }
	}
	for k := uint64(0); k < setupCalls; k++ {
		d, err := call(k)
		if err != nil {
			return fmt.Errorf("%s: set-up call %d: %w", env.spec.name, k, err)
		}
		ok := ss.unmarshalRep(d, k)
		d.Release()
		if !ok && !env.h.sabotage {
			return fmt.Errorf("%s: set-up call %d: wrong answer", env.spec.name, k)
		}
	}
	env.reqFrame = int(cc.sent.Load() / setupCalls)
	env.repFrame = int(cc.got.Load() / setupCalls)
	return nil
}

// oracleCheck marshals the seeded values with the generated stubs and
// with the independent reflective interpreter (internal/interp) and
// counts the byte strings that differ.
func oracleCheck(root string, d *rpcData) (mismatches int, err error) {
	ilu := interp.New(wire.XDR{}, interp.ILU)
	bench, err := clientStubs("test.idl", ts.BenchIDL)
	if err != nil {
		return 0, err
	}
	storeSrc, err := os.ReadFile(filepath.Join(root, "internal/zcstubs/store.idl"))
	if err != nil {
		return 0, err
	}
	store, err := clientStubs("store.idl", string(storeSrc))
	if err != nil {
		return 0, err
	}
	differ := func(stub *presc.Stub, compiled func(*rt.Encoder), vals ...any) error {
		var want, got rt.Encoder
		for i, p := range stub.RequestParams() {
			if err := ilu.Marshal(&want, p.Request, vals[i]); err != nil {
				return fmt.Errorf("oracle %s: %w", stub.Op, err)
			}
		}
		compiled(&got)
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			mismatches++
		}
		return nil
	}
	for i := range d.arrays {
		v := d.arrays[i]
		if err := differ(bench["sum"], func(e *rt.Encoder) { ts.MarshalBenchSumXDRRequest(e, v) }, v); err != nil {
			return 0, err
		}
	}
	if err := differ(bench["send_dirs"], func(e *rt.Encoder) { ts.MarshalBenchSendDirsXDRRequest(e, d.dirs) }, d.dirs); err != nil {
		return 0, err
	}
	if err := differ(bench["list_dir"], func(e *rt.Encoder) { ts.MarshalBenchListDirXDRRequest(e, d.path) }, d.path); err != nil {
		return 0, err
	}
	err = differ(store["put"], func(e *rt.Encoder) { zc.MarshalStorePutRequest(e, d.names[0], d.blobs[0]) }, d.names[0], d.blobs[0])
	return mismatches, err
}

// clientStubs returns the client presentation's stubs of a CORBA IDL
// source, by operation name.
func clientStubs(file, src string) (map[string]*presc.Stub, error) {
	af, err := corbaidl.Parse(file, src)
	if err != nil {
		return nil, err
	}
	pf, err := pgen.GenerateGo(af, presc.Client)
	if err != nil {
		return nil, err
	}
	out := map[string]*presc.Stub{}
	for _, s := range pf.Stubs {
		out[s.Op] = s
	}
	return out, nil
}
