package rt

import (
	"runtime"
	"sync"
	"testing"
)

// Tests for the big class's retention policy: a free list that survives
// collection and is bounded, and message-sized allocation while alias
// views are pinning the class's buffers.

// resetBigClass empties the big-class free list and clears the pinned
// flag, so a test starts from a miss that pads to the class.
func resetBigClass(t *testing.T) {
	t.Helper()
	reset := func() {
		for len(arenaBigFree) > 0 {
			<-arenaBigFree
		}
		arenaBigPinned.Store(false)
	}
	reset()
	t.Cleanup(reset)
}

// The retention tests below speak in buffers; these three helpers map a
// buffer to the lease it was drawn under.

var drawn sync.Map // &buf[:1][0] -> *Lease

func getArenaBuf(n int) []byte {
	l := getLease(n)
	drawn.Store(&l.buf[:1][0], l)
	return l.buf
}

func leaseOf(b []byte) *Lease {
	l, _ := drawn.LoadAndDelete(&b[:1][0])
	return l.(*Lease)
}

func putArenaBuf(b []byte) { leaseOf(b).Release() }

// releaseArena settles b the way a reply's life ends: bound to a pooled
// decoder, optionally viewed through AliasNext, released.
func releaseArena(b []byte, alias bool) {
	d := getDecoder()
	d.resetLease(b, leaseOf(b))
	if alias {
		d.AliasNext(8)
	}
	d.Release()
}

// TestArenaBigClassSurvivesGC: in steady state one big buffer serves
// every message, however often the collector runs in between — a
// sync.Pool would have been emptied by the second collection.
func TestArenaBigClassSurvivesGC(t *testing.T) {
	resetBigClass(t)
	first := getArenaBuf(100 << 10)
	if cap(first) != arenaBig {
		t.Fatalf("big-class miss: cap = %d, want %d", cap(first), arenaBig)
	}
	releaseArena(first, false)
	before := ReadZeroCopyStats()
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		runtime.GC()
		b := getArenaBuf(65<<10 + i<<10)
		if &b[0] != &first[0] {
			t.Fatalf("round %d: a new buffer was allocated after three collections", i)
		}
		releaseArena(b, false)
	}
	if d := ReadZeroCopyStats().Sub(before); d.ArenaGets != 5 || d.ArenaPuts != 5 {
		t.Errorf("gets = %d, puts = %d, want 5 recycled round trips", d.ArenaGets, d.ArenaPuts)
	}
}

// TestArenaBigClassBounded: puts beyond the free list's depth are
// dropped, not queued, and only the kept ones count as puts.
func TestArenaBigClassBounded(t *testing.T) {
	resetBigClass(t)
	var bufs [arenaBigDepth + 2][]byte
	for i := range bufs {
		bufs[i] = getArenaBuf(arenaBig)
	}
	before := ReadZeroCopyStats()
	for _, b := range bufs {
		putArenaBuf(b)
	}
	if got := len(arenaBigFree); got != arenaBigDepth {
		t.Errorf("free list holds %d buffers, want %d", got, arenaBigDepth)
	}
	if d := ReadZeroCopyStats().Sub(before); d.ArenaPuts != arenaBigDepth {
		t.Errorf("ArenaPuts = %d, want %d (a dropped buffer is not a put)", d.ArenaPuts, arenaBigDepth)
	}
}

// TestArenaPinnedBigClassAllocatesMessageSize: once an alias view has
// pinned a big-class buffer, a miss costs the page-rounded message, not
// 1 MiB; when such a buffer is released un-aliased the class pads again
// so its buffers recycle.
func TestArenaPinnedBigClassAllocatesMessageSize(t *testing.T) {
	resetBigClass(t)
	const n = 256<<10 + 100
	before := ReadZeroCopyStats()

	padded := getArenaBuf(n)
	if cap(padded) != arenaBig {
		t.Fatalf("first miss: cap = %d, want the class size %d", cap(padded), arenaBig)
	}
	releaseArena(padded, true)
	if d := ReadZeroCopyStats().Sub(before); d.ArenaPinned != 1 || d.ArenaPuts != 0 {
		t.Fatalf("aliased release: pinned = %d, puts = %d, want 1 and 0", d.ArenaPinned, d.ArenaPuts)
	}

	exact := getArenaBuf(n)
	if len(exact) != n || cap(exact) < n || cap(exact) >= arenaBig || cap(exact)%arenaSmall != 0 {
		t.Fatalf("miss while pinned: len = %d, cap = %d, want %d <= cap < %d, page-rounded", len(exact), cap(exact), n, arenaBig)
	}
	releaseArena(exact, true)
	if again := getArenaBuf(n); cap(again) >= arenaBig {
		t.Errorf("second miss while pinned: cap = %d, want < %d", cap(again), arenaBig)
	} else {
		releaseArena(again, false) // matches no class: dropped, and padding resumes
	}

	restored := getArenaBuf(n)
	if cap(restored) != arenaBig {
		t.Errorf("miss after an un-aliased release: cap = %d, want the class size %d", cap(restored), arenaBig)
	}
	releaseArena(restored, false)
	if got := getArenaBuf(n); &got[0] != &restored[0] {
		t.Error("the padded buffer did not recycle")
	}
}

// TestArenaSmallClassesUnchanged: the small and mid classes still pad
// to their class and never touch the big class's list or flag.
func TestArenaSmallClassesUnchanged(t *testing.T) {
	resetBigClass(t)
	arenaBigPinned.Store(true)
	for _, c := range []struct{ n, class int }{{0, arenaSmall}, {100, arenaSmall}, {arenaSmall + 1, arenaMid}, {arenaMid, arenaMid}} {
		b := getArenaBuf(c.n)
		if len(b) != c.n || cap(b) != c.class {
			t.Errorf("getArenaBuf(%d): len = %d, cap = %d, want cap %d", c.n, len(b), cap(b), c.class)
		}
		putArenaBuf(b)
	}
	if len(arenaBigFree) != 0 || !arenaBigPinned.Load() {
		t.Error("a small-class round trip touched the big class")
	}
	arenaBigPinned.Store(false)
	releaseArena(getArenaBuf(arenaMid), true)
	if arenaBigPinned.Load() {
		t.Error("pinning a mid-class buffer switched the big class to message-sized allocation")
	}
	if b := getArenaBuf(arenaBig + 1); cap(b) != arenaBig+1 {
		t.Errorf("oversized request: cap = %d, want exactly %d", cap(b), arenaBig+1)
	}
}
