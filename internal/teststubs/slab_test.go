package teststubs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"flick/rt"
)

// benchDirs builds the benchmark's ListDir shape: n entries of 113-116
// name bytes, 256 wire bytes each under XDR.
func benchDirs(n int) []BenchDirEntry {
	r := rand.New(rand.NewSource(7))
	v := randDirs(r, n)
	for i := range v {
		name := make([]byte, 113+i%4)
		for j := range name {
			name[j] = byte('a' + (i+j)%26)
		}
		v[i].Name = string(name)
	}
	return v
}

// listDirReply is the ListDir reply codec of each committed format.
var listDirReply = []struct {
	name string
	m    func(*rt.Encoder, []BenchDirEntry, int32)
	u    func(*rt.Decoder) ([]BenchDirEntry, int32, error)
}{
	{"xdr", MarshalBenchListDirXDRReply, UnmarshalBenchListDirXDRReply},
	{"cdr", MarshalBenchListDirCDRReply, UnmarshalBenchListDirCDRReply},
	{"mach", MarshalBenchListDirMachReply, UnmarshalBenchListDirMachReply},
	{"fluke", MarshalBenchListDirFlukeReply, UnmarshalBenchListDirFlukeReply},
}

// TestListDirReplyAllocs is the parameter-management guard: decoding the
// benchmark's 256-entry, 64 KiB ListDir reply allocates the entry array
// and one slab for all 256 names — not one string per entry (259
// allocations before the storage plan) — in every format.
func TestListDirReplyAllocs(t *testing.T) {
	dirs := benchDirs(256)
	for _, tc := range listDirReply {
		var e rt.Encoder
		tc.m(&e, dirs, 512)
		msg := e.Bytes()
		d := rt.NewDecoder(msg)
		var got []BenchDirEntry
		allocs := testing.AllocsPerRun(20, func() {
			d.Reset(msg)
			var err error
			if got, _, err = tc.u(d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%s: %.0f allocs for a 256-entry reply, want <= 3", tc.name, allocs)
		}
		if !reflect.DeepEqual(got, dirs) {
			t.Errorf("%s: decoded entries differ", tc.name)
		}
	}
}

// allocatedBy reports the bytes f allocates (single-goroutine tests:
// nothing else is running).
func allocatedBy(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestListDirHostileLengths feeds the slab-planned decoder truncated and
// lying messages: every one must end with d.Err() set (never a panic),
// and none may cost more memory than a small multiple of the bytes that
// actually arrived — the count guard refuses an element count the frame
// cannot hold before the entry array is made, and the slab is sized
// from what remains, not from what the lengths claim.
func TestListDirHostileLengths(t *testing.T) {
	dirs := benchDirs(32)
	var e rt.Encoder
	MarshalBenchListDirXDRReply(&e, dirs, 64)
	good := append([]byte(nil), e.Bytes()...)

	decode := func(msg []byte) error {
		_, _, err := UnmarshalBenchListDirXDRReply(rt.NewDecoder(msg))
		return err
	}
	if err := decode(good); err != nil {
		t.Fatalf("intact message: %v", err)
	}
	// Every proper prefix is a truncation — in every format: where no
	// padding follows a string (CDR, Fluke) the check for what comes
	// after it used to be hoisted above the string's own bytes, and a
	// frame ending inside that tail indexed past the buffer.
	for _, tc := range listDirReply {
		var e rt.Encoder
		tc.m(&e, dirs[:3], 6)
		msg := e.Bytes()
		for cut := 0; cut < len(msg); cut++ {
			if _, _, err := tc.u(rt.NewDecoder(msg[:cut])); err == nil {
				t.Fatalf("%s: message truncated to %d of %d bytes decoded without error", tc.name, cut, len(msg))
			}
		}
	}

	// Layout: status(4) count(4) then per entry len(4) name pad fields tag.
	hostile := func(name string, patch func(b []byte) []byte, want error) {
		t.Helper()
		msg := patch(append([]byte(nil), good...))
		var err error
		cost := allocatedBy(func() { err = decode(msg) })
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
		if limit := uint64(3 * len(msg)); cost > limit {
			t.Errorf("%s: decoding a %d-byte message allocated %d bytes (limit %d)", name, len(msg), cost, limit)
		}
	}
	hostile("entry count beyond the frame", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[4:], 65000)
		return b
	}, rt.ErrTruncated)
	hostile("entry count one too many", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[4:], 33)
		return b
	}, rt.ErrTruncated)
	hostile("name longer than its bound", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[8:], 4096)
		return b
	}, rt.ErrBound)
	hostile("name longer than the rest of the frame", func(b []byte) []byte {
		// One entry, a within-bound name length, and a frame that ends
		// 100 bytes into the name.
		binary.BigEndian.PutUint32(b[4:], 1)
		binary.BigEndian.PutUint32(b[8:], 255)
		return b[:12+100]
	}, rt.ErrTruncated)

	// The 64 KiB frame of the crafted-header hole, end to end: at 140
	// wire bytes per entry it holds 468, so a claim of 65 000 (a ~10 MB
	// make before the guard) dies on the count.
	frame := make([]byte, 64<<10)
	binary.BigEndian.PutUint32(frame[4:], 65000)
	var err error
	if cost := allocatedBy(func() { err = decode(frame) }); !errors.Is(err, rt.ErrTruncated) || cost > 4096 {
		t.Errorf("64 KiB frame claiming 65000 entries: err %v, %d bytes allocated", err, cost)
	}
}

// settledPoolStats snapshots the pool counters once they have stopped
// moving: an earlier test's connections release their last decoders
// asynchronously, and a baseline taken mid-release reads as a phantom
// surplus of returns that no later wait can balance.
func settledPoolStats() rt.PoolStats {
	s := rt.ReadPoolStats()
	for quiet := 0; quiet < 5; {
		time.Sleep(time.Millisecond)
		if next := rt.ReadPoolStats(); next == s {
			quiet++
		} else {
			s, quiet = next, 0
		}
	}
	return s
}

// TestSlabStringsOutliveTheirDecoder drives the retention contract
// through the generated client stub over a real connection: names from
// the first ListDir reply stay intact while the same pooled decoder
// serves later replies (each carving its own slab) and the collector
// runs, and the pools end balanced. `make ci` runs it under -race.
func TestSlabStringsOutliveTheirDecoder(t *testing.T) {
	before := settledPoolStats()
	impl := &benchImpl{dirs: benchDirs(64)}
	clientEnd, serverEnd := rt.Pipe()
	s := rt.NewServer(rt.ONC{})
	RegisterBenchXDR(s, impl)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	c := NewBenchXDRClient(clientEnd)

	first, _, err := c.ListDir("/")
	if err != nil {
		t.Fatal(err)
	}
	kept := first[17].Name
	for round := 0; round < 20; round++ {
		// Different names of the same lengths: a reused slab would show.
		for i := range impl.dirs {
			impl.dirs[i].Name = fmt.Sprintf("%0*d", len(impl.dirs[i].Name), round*1000+i)
		}
		ret, _, err := c.ListDir("/")
		if err != nil {
			t.Fatal(err)
		}
		if ret[17].Name != impl.dirs[17].Name {
			t.Fatalf("round %d decoded %q", round, ret[17].Name)
		}
		runtime.GC()
	}
	if want := benchDirs(64)[17].Name; kept != want {
		t.Fatalf("retained name changed:\n got %q\nwant %q", kept, want)
	}

	c.C.Close()
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for !rt.ReadPoolStats().Sub(before).Balanced() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := rt.ReadPoolStats().Sub(before); !d.Balanced() {
		t.Fatalf("pools unbalanced: %+v", d)
	}
}
