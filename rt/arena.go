// The receive arena: size-classed pooled buffers for inbound messages.
//
// Raw transports (TCP, UDP, in-process pipes) draw their Recv buffers
// here, and the pooled decoder returns them when the message dies —
// unless alias views handed out by AliasNext are still live, in which
// case the arena is *pinned*: recycling is forfeited and the garbage
// collector reclaims the buffer when the last view drops it. Pinning
// is what makes the decode-side zero-copy path memory-safe without a
// borrow checker: an escaped view can never observe another message's
// bytes, it can only cost one buffer reuse (and a counter records it,
// so the arenalife lint's findings are measurable at runtime too).
//
// Only conns implementing the arenaOwner marker participate: a wrapper
// that hands out sub-slices of a shared frame (BatchConn) must never
// have one message's backing array recycled under its siblings.
//
// Retention differs by class. The small and mid classes are sync.Pools,
// which the collector empties: a 4 K or 64 K allocation now and then.
// The big class is a bounded free list that survives collection, and
// while alias views are pinning its buffers a miss allocates the
// message size, so a pin costs what the message weighs. There are three
// classes on purpose: classes between 64 K and 1 M measured −18 % ops/s
// and +30 % p99 on the bench's dirs_fetch workload, whose pooled 1 MiB
// buffers are the heap ballast pacing its collector (DESIGN.md §14.2).
package rt

import (
	"sync"
	"sync/atomic"
)

// Arena size classes. Most RPC messages fit the small class; the large
// classes serve the bulk-payload workloads the zero-copy path targets.
const (
	arenaSmall = 4 << 10
	arenaMid   = 64 << 10
	arenaBig   = 1 << 20
)

// arenaPools hold the small and mid classes as *[]byte boxes (no New: a
// miss returns nil and the caller allocates). The boxes themselves
// recycle through boxPool so a put never allocates a fresh slice-header
// box — the arena must not add a hidden allocation to the per-call fast
// path it exists to trim.
var arenaPools [2]sync.Pool

var boxPool = sync.Pool{New: func() any { return new([]byte) }}

var arenaClassSize = [3]int{arenaSmall, arenaMid, arenaBig}

// arenaBigFree holds the big class on a free list that survives
// collection: a sync.Pool is emptied every second GC cycle, and a bulk
// workload collects hundreds of times a second. It is bounded — at most
// arenaBigDepth buffers (4 MiB) are retained, one per direction of two
// bulk connections — and a put that finds it full drops the buffer.
var arenaBigFree = make(chan []byte, arenaBigDepth)

const arenaBigDepth = 4

// arenaBigPinned records that the last big-class buffer released was
// pinned by alias views. Pinned buffers never come back, so while it is
// set a big-class miss allocates the page-rounded message size instead
// of padding to the class. Such a buffer matches no class; releasing
// one un-aliased clears the flag, and misses pad (and recycle) again.
var arenaBigPinned atomic.Bool

func arenaClass(n int) int {
	switch {
	case n <= arenaSmall:
		return 0
	case n <= arenaMid:
		return 1
	case n <= arenaBig:
		return 2
	}
	return -1
}

// getArenaBuf returns an n-byte buffer, pooled when n fits a size
// class. Oversized requests fall back to a plain allocation that simply
// never re-enters the pool.
func getArenaBuf(n int) []byte {
	cl := arenaClass(n)
	if cl < 0 {
		return make([]byte, n)
	}
	zcCounters.arenaGets.Add(1)
	if cl == 2 {
		select {
		case b := <-arenaBigFree:
			return b[:n]
		default:
		}
		if arenaBigPinned.Load() {
			return make([]byte, (n+arenaSmall-1)&^(arenaSmall-1))[:n]
		}
	} else if bp, _ := arenaPools[cl].Get().(*[]byte); bp != nil {
		b := *bp
		*bp = nil
		boxPool.Put(bp)
		return b[:n]
	}
	// Miss: allocate the full class size so the buffer recycles by
	// capacity later.
	return make([]byte, arenaClassSize[cl])[:n]
}

// putArenaBuf recycles a buffer previously handed out by getArenaBuf
// (nil is ignored). Buffers whose capacity matches no class (oversized
// or message-sized allocations) are dropped to the garbage collector.
// Only a buffer that re-enters a pool counts as a put.
func putArenaBuf(b []byte) {
	var cl int
	switch cap(b) {
	case arenaSmall:
		cl = 0
	case arenaMid:
		cl = 1
	case arenaBig:
		select {
		case arenaBigFree <- b[:arenaBig]:
			zcCounters.arenaPuts.Add(1)
		default:
		}
		return
	default:
		if arenaClass(cap(b)) == 2 {
			arenaBigPinned.Store(false)
		}
		return
	}
	zcCounters.arenaPuts.Add(1)
	bp := boxPool.Get().(*[]byte)
	*bp = b[:cap(b)]
	arenaPools[cl].Put(bp)
}

// pinArenaBuf settles a buffer whose recycle is forfeited because alias
// views into it are outstanding: the views own it now and the garbage
// collector reclaims it when they die.
func pinArenaBuf(b []byte) {
	zcCounters.arenaPinned.Add(1)
	if arenaClass(cap(b)) == 2 {
		arenaBigPinned.Store(true)
	}
}

// arenaOwner marks transports whose Recv buffers the receiver
// whole-owns (see the package comment above). Deliberately unexported:
// wrappers cannot opt in by accident.
type arenaOwner interface{ arenaOwned() }

// ownsArena reports whether c's received messages may be recycled
// through the arena pool once decoded.
func ownsArena(c Conn) bool {
	_, ok := c.(arenaOwner)
	return ok
}
