package zcstubs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"flick/rt"
)

// These tests pin the zero-copy contract end to end on the committed
// -zerocopy stubs: bulk payloads marshal by reference (no marshal-side
// copy, proven by counters and an alloc guard), travel as vectored
// writes on TCP, decode as arena-borrowed views, and every fallback —
// sub-threshold payloads, transports without writev — degrades to the
// copying path with identical wire bytes.

// memStore is the reference Store: Put copies its payload out of the
// request arena (the well-behaved handler shape arenalife teaches), Get
// returns the stored bytes, which marshal by reference into the reply.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name], nil
}

func (s *memStore) Put(name string, data []byte) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = append([]byte(nil), data...)
	return uint32(len(data)), nil
}

// startStore serves a memStore on loopback TCP and returns its address
// and a shutdown func.
func startStore(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := rt.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := rt.NewServer(rt.ONC{})
	RegisterStore(s, newMemStore())
	go s.Serve(l)
	return l.Addr(), func() { l.Close() }
}

func dialStore(t *testing.T, addr string) *StoreClient {
	t.Helper()
	conn, err := rt.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	return NewStoreClient(conn)
}

func TestZeroCopyRoundTripTCP(t *testing.T) {
	addr, stop := startStore(t)
	defer stop()
	c := dialStore(t, addr)
	defer c.C.Close()

	payload := make([]byte, 8<<10)
	rand.New(rand.NewSource(1)).Read(payload)

	before := rt.ReadZeroCopyStats()
	n, err := c.Put("k", payload)
	if err != nil || int(n) != len(payload) {
		t.Fatalf("Put = %d, %v", n, err)
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get returned %d bytes, mismatch with payload", len(got))
	}
	d := rt.ReadZeroCopyStats().Sub(before)

	// Marshal side: the Put request payload and the Get reply payload
	// both travelled by reference — counters advance, and not one
	// payload byte crossed the copying path.
	if d.AliasSegs < 2 {
		t.Errorf("AliasSegs = %d, want >= 2 (put request + get reply)", d.AliasSegs)
	}
	if want := uint64(2 * len(payload)); d.AliasedBytes < want {
		t.Errorf("AliasedBytes = %d, want >= %d", d.AliasedBytes, want)
	}
	if d.CopiedBytes != 0 {
		t.Errorf("CopiedBytes = %d, want 0 (zero marshal-side copies)", d.CopiedBytes)
	}
	if d.VectoredSends < 2 {
		t.Errorf("VectoredSends = %d, want >= 2 (both directions are TCP)", d.VectoredSends)
	}
	// Decode side: the server borrowed the Put payload from its receive
	// arena, the client borrowed the Get reply from its own; the Get
	// view escaped to us, so its arena was pinned rather than recycled.
	if d.AliasViews < 2 {
		t.Errorf("AliasViews = %d, want >= 2", d.AliasViews)
	}
	if d.ArenaGets == 0 {
		t.Errorf("ArenaGets = 0, want > 0 (TCP receive draws from the arena pool)")
	}
	if d.ArenaPinned == 0 {
		t.Errorf("ArenaPinned = 0, want > 0 (the escaped Get view pins its arena)")
	}
}

// TestZeroCopyMarshalAllocGuard is the alloc-side half of the
// zero-copy proof: marshalling a 64 KiB payload and assembling the
// vectored segment list allocates nothing in steady state — the
// payload is referenced, never moved.
func TestZeroCopyMarshalAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	payload := make([]byte, 64<<10)
	var e rt.Encoder
	var sink int
	const runs = 200

	before := rt.ReadZeroCopyStats()
	avg := testing.AllocsPerRun(runs, func() {
		e.Reset()
		MarshalStorePutRequest(&e, "k", payload)
		segs, ok := e.Vectored()
		if !ok {
			t.Fatal("Vectored() = false for a 64 KiB payload")
		}
		sink += len(segs)
	})
	d := rt.ReadZeroCopyStats().Sub(before)

	if avg > 0.5 {
		t.Errorf("marshal+vector of 64 KiB allocates %.1f objects/op, want 0", avg)
	}
	if d.CopiedBytes != 0 {
		t.Errorf("CopiedBytes = %d, want 0", d.CopiedBytes)
	}
	if want := uint64(runs * len(payload)); d.AliasedBytes < want {
		t.Errorf("AliasedBytes = %d, want >= %d", d.AliasedBytes, want)
	}
	_ = sink
}

// sizeStore reads its argument inside the borrow and keeps nothing: what
// the runtime and the stubs allocate per Put is all a call to it costs.
type sizeStore struct{}

func (sizeStore) Get(name string) ([]byte, error) { return nil, nil }
func (sizeStore) Put(name string, data []byte) (uint32, error) {
	return uint32(len(data)), nil
}

// TestZeroCopyPutAllocGuard pins the end-to-end half: a 256 KiB Put over
// loopback TCP — client and server in this process — allocates at most
// three objects and under 1 kB per call once warm. The request is
// aliased on both sides, and the server's view gives its receive buffer
// back when the work function returns (the skeleton's EndBorrow), so the
// 260 KiB buffer recycles instead of being pinned for the collector.
func TestZeroCopyPutAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	l, err := rt.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := rt.NewServer(rt.ONC{})
	RegisterStore(s, sizeStore{})
	go s.Serve(l)
	c := dialStore(t, l.Addr())
	defer c.C.Close()
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(3)).Read(payload)
	put := func() {
		if n, err := c.Put("blob", payload); err != nil || int(n) != len(payload) {
			t.Fatalf("Put = %d, %v", n, err)
		}
	}
	for i := 0; i < 20; i++ {
		put()
	}
	// A window may still catch the big class growing by one buffer (a
	// request can arrive before the worker has released the previous
	// one; the free list holds at most four), which is warm-up, not
	// steady state: the guard is met by the first window without one.
	const runs = 200
	var allocs, bytes float64
	for window := 0; window < 5; window++ {
		before := rt.ReadZeroCopyStats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			put()
		}
		runtime.ReadMemStats(&m1)
		d := rt.ReadZeroCopyStats().Sub(before)
		if d.AliasViews < runs || d.ArenaPinned != 0 {
			t.Fatalf("alias views = %d, pinned = %d: want every Put aliased, none pinned", d.AliasViews, d.ArenaPinned)
		}
		allocs = float64(m1.Mallocs-m0.Mallocs) / runs
		bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		if allocs <= 3 && bytes < 1000 {
			return
		}
	}
	t.Errorf("%.2f allocs and %.0f bytes per 256 KiB Put, want <= 3 and < 1000", allocs, bytes)
}

// Sub-threshold payloads take the copying path: correct answer, no
// alias segments, no vectored sends.
func TestZeroCopyThresholdFallback(t *testing.T) {
	addr, stop := startStore(t)
	defer stop()
	c := dialStore(t, addr)
	defer c.C.Close()

	payload := []byte("tiny payload, well under the threshold")
	before := rt.ReadZeroCopyStats()
	if _, err := c.Put("small", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("small")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	d := rt.ReadZeroCopyStats().Sub(before)
	if d.AliasSegs != 0 {
		t.Errorf("AliasSegs = %d, want 0 below the threshold", d.AliasSegs)
	}
	if d.VectoredSends != 0 {
		t.Errorf("VectoredSends = %d, want 0 below the threshold", d.VectoredSends)
	}
	if d.CopiedBytes < uint64(2*len(payload)) {
		t.Errorf("CopiedBytes = %d, want >= %d", d.CopiedBytes, 2*len(payload))
	}
}

// plainConn hides the transport's writev capability: the interface
// embedding forwards only Conn's methods, so sendEncoded must flatten.
type plainConn struct{ rt.Conn }

func TestZeroCopyFlattenFallback(t *testing.T) {
	addr, stop := startStore(t)
	defer stop()
	conn, err := rt.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewStoreClient(plainConn{conn})
	defer c.C.Close()

	payload := make([]byte, 8<<10)
	rand.New(rand.NewSource(2)).Read(payload)
	before := rt.ReadZeroCopyStats()
	if _, err := c.Put("flat", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("flat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get over flattening transport mismatched: %d bytes, %v", len(got), err)
	}
	d := rt.ReadZeroCopyStats().Sub(before)
	if d.FlattenedSends == 0 {
		t.Error("FlattenedSends = 0, want > 0 (client transport hides writev)")
	}
}

// TestZeroCopyChaosSoak hammers one server from a mixed client fleet —
// vectored TCP, a flattening wrapper, and a delay/duplicate-injecting
// hostile link — with payloads straddling the zero-copy threshold.
// Every reply must match exactly (an aliasing bug shows up as another
// message's bytes) and every pooled buffer must come home.
func TestZeroCopyChaosSoak(t *testing.T) {
	addr, stop := startStore(t)
	defer stop()

	calls := 400
	if testing.Short() {
		calls = 60
	}

	// (Pool baseline second: the quiet wait also covers an earlier test's
	// server still releasing its last request decoder.)
	arenaBefore := quietArena()
	poolBefore := rt.ReadPoolStats()
	var clients []*StoreClient
	for i := 0; i < 4; i++ {
		conn, err := rt.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 2:
			conn = plainConn{conn}
		case 3:
			conn, err = rt.NewFaultConn(conn, rt.FaultPlan{
				Seed:      42,
				Delay:     0.2,
				DelayMax:  2 * time.Millisecond,
				Duplicate: 0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		clients = append(clients, NewStoreClient(conn))
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *StoreClient) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci)))
			for i := 0; i < calls; i++ {
				size := 64 + rng.Intn(64<<10)
				payload := make([]byte, size)
				rng.Read(payload)
				key := fmt.Sprintf("c%d-k%d", ci, i%8)
				if _, err := c.Put(key, payload); err != nil {
					errs <- fmt.Errorf("client %d put: %w", ci, err)
					return
				}
				got, err := c.Get(key)
				if err != nil {
					errs <- fmt.Errorf("client %d get: %w", ci, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("client %d: reply mismatch at call %d (%d bytes): aliasing bug", ci, i, size)
					return
				}
			}
			errs <- nil
		}(ci, c)
	}
	wg.Wait()
	for range clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		c.C.Close()
	}
	stop()

	// The soak crossed both send paths.
	d := rt.ReadZeroCopyStats()
	if d.VectoredSends == 0 || d.FlattenedSends == 0 {
		t.Errorf("soak exercised VectoredSends=%d FlattenedSends=%d, want both > 0",
			d.VectoredSends, d.FlattenedSends)
	}

	// Every pooled encoder/decoder checkout must be returned once the
	// server drains; poll briefly for the in-flight tail.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if rt.ReadPoolStats().Sub(poolBefore).Balanced() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool imbalance after soak: %+v", rt.ReadPoolStats().Sub(poolBefore))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And every receive buffer drawn is accounted for: recycled (the
	// server's handler-scoped Put views, every un-aliased frame), pinned
	// (the clients' escaped Get views, and what the lease-less plainConn
	// received) or dropped by a full free list — none lost.
	for {
		d := rt.ReadZeroCopyStats().Sub(arenaBefore)
		if d.ArenaGets == d.ArenaPuts+d.ArenaPinned+d.ArenaDropped {
			if d.ArenaPuts == 0 || d.ArenaPinned == 0 {
				t.Errorf("arena puts = %d, pinned = %d: want both", d.ArenaPuts, d.ArenaPinned)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("arena ledger after soak: gets = %d, puts = %d, pinned = %d, dropped = %d",
				d.ArenaGets, d.ArenaPuts, d.ArenaPinned, d.ArenaDropped)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// quietArena snapshots the zero-copy counters once they have stopped
// moving: an earlier test's server may still be releasing its last
// request, and a buffer drawn before the snapshot but settled after it
// would unbalance the ledger by one.
func quietArena() rt.ZeroCopyStats {
	prev := rt.ReadZeroCopyStats()
	for quiet := 0; quiet < 5; {
		time.Sleep(2 * time.Millisecond)
		if cur := rt.ReadZeroCopyStats(); cur == prev {
			quiet++
		} else {
			quiet, prev = 0, cur
		}
	}
	return prev
}
