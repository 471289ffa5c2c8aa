// The receive arena: size-classed pooled buffers for inbound messages,
// each travelling under a refcounted Lease.
//
// Raw transports (TCP, UDP, in-process pipes) draw every received
// message's buffer here and hand it out, with its lease, through
// RecvLease. The lease travels with the bytes — through any wrapper
// that forwards RecvLease — to the last reader, normally a pooled
// Decoder, and the buffer goes home when the last reference is
// released. A frame carrying several messages (a batch envelope, a
// duplicated delivery) is retained once per part, so it recycles when
// its last part's decoder is released, whichever worker that is.
//
// A release may declare the bytes *escaped*: alias views handed out by
// AliasNext are still live with no scope that ends them (a client
// stub's zero-copy result), or the message left through plain Recv,
// which has no lease to give. Then the buffer is *pinned*: recycling is
// forfeited and the garbage collector reclaims it when the last view
// drops it. Pinning is what makes the decode-side zero-copy path
// memory-safe without a borrow checker: an escaped view can never
// observe another message's bytes, it can only cost one buffer reuse
// (and a counter records it, so the arenalife lint's findings are
// measurable at runtime too). Views that do have a scope — a server
// skeleton's aliased `in` arguments, valid until the work function
// returns — end it with Decoder.EndBorrow and cost nothing.
//
// Every buffer drawn is settled exactly once: ArenaGets == ArenaPuts +
// ArenaPinned + ArenaDropped once nothing is in flight.
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

// Lease is one received message's claim on its receive buffer. It is
// drawn with the buffer and pooled with it, so leasing adds no
// allocation to a call. A nil *Lease is valid everywhere and means the
// bytes are not the arena's (the garbage collector owns them): Retain
// and Release are no-ops on it.
type Lease struct {
	// buf is the message in its buffer: len is the message length, cap
	// the buffer's (the size class, for a buffer that recycles).
	buf     []byte
	refs    atomic.Int32
	escaped atomic.Bool
}

// arenaPools hold the small and mid classes as leases at rest (no New:
// a miss returns nil and the caller allocates).
var arenaPools [2]sync.Pool

var arenaClassSize = [3]int{arenaSmall, arenaMid, arenaBig}

// arenaBigFree holds the big class on a free list that survives
// collection: a sync.Pool is emptied every second GC cycle, and a bulk
// workload collects hundreds of times a second. It is bounded — at most
// arenaBigDepth buffers (4 MiB) are retained, one per direction of two
// bulk connections — and a release that finds it full drops the buffer.
var arenaBigFree = make(chan *Lease, arenaBigDepth)

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

// getLease returns a lease on an n-byte buffer with one reference held,
// pooled when n fits a size class. Oversized requests fall back to a
// plain allocation that simply never re-enters the pool.
func getLease(n int) *Lease {
	cl := arenaClass(n)
	var l *Lease
	size := n
	switch {
	case cl < 0:
	case cl == 2:
		zcCounters.arenaGets.Add(1)
		select {
		case l = <-arenaBigFree:
		default:
			if arenaBigPinned.Load() {
				size = (n + arenaSmall - 1) &^ (arenaSmall - 1)
			} else {
				size = arenaBig
			}
		}
	default:
		zcCounters.arenaGets.Add(1)
		l, _ = arenaPools[cl].Get().(*Lease)
		// A miss allocates the full class size so the buffer recycles by
		// capacity later.
		size = arenaClassSize[cl]
	}
	if l == nil {
		l = &Lease{buf: make([]byte, size)}
	}
	l.buf = l.buf[:n]
	l.refs.Store(1)
	return l
}

// grow returns a lease on a buffer of at least n bytes that begins with
// l's message: l itself when its buffer is large enough, otherwise a
// larger one (l goes home; a nil l is an empty message). Only the sole
// holder may call it.
func (l *Lease) grow(n int) *Lease {
	if l == nil {
		return getLease(n)
	}
	if n <= cap(l.buf) {
		l.buf = l.buf[:n]
		return l
	}
	grown := getLease(n)
	copy(grown.buf, l.buf)
	l.Release()
	return grown
}

// Retain adds one reference: one more holder must Release before the
// buffer goes home. A conn wrapper that delivers a message twice, or
// splits a frame into parts delivered separately, retains once per
// extra delivery.
func (l *Lease) Retain() { l.retain(1) }

func (l *Lease) retain(n int) {
	if l != nil && n > 0 {
		l.refs.Add(int32(n))
	}
}

// Release drops one reference; the last one sends the buffer home. A
// conn wrapper releases the lease of a frame it swallows (a failed
// integrity check, an injected drop). Releasing a lease nobody holds is
// a no-op.
func (l *Lease) Release() { l.release(false) }

// release drops one reference, first noting whether this holder let
// views of the bytes escape. The last release settles the buffer:
// pinned if any holder's views escaped (they own it now and the garbage
// collector reclaims it when they die), recycled by capacity otherwise.
// Buffers whose capacity matches no class (oversized or message-sized
// allocations) are dropped to the collector.
func (l *Lease) release(escaped bool) {
	if l == nil {
		return
	}
	if escaped {
		l.escaped.Store(true)
	}
	for {
		n := l.refs.Load()
		if n <= 0 {
			return
		}
		if l.refs.CompareAndSwap(n, n-1) {
			if n > 1 {
				return
			}
			break
		}
	}
	c := cap(l.buf)
	cl := arenaClass(c)
	if cl < 0 {
		return // oversized: never counted as a get
	}
	if l.escaped.Load() {
		zcCounters.arenaPinned.Add(1)
		if cl == 2 {
			arenaBigPinned.Store(true)
		}
		return
	}
	if c != arenaClassSize[cl] {
		// Message-sized, allocated while the big class was pinned.
		zcCounters.arenaDropped.Add(1)
		if cl == 2 {
			arenaBigPinned.Store(false)
		}
		return
	}
	// Race builds turn a view kept past its borrow into a loud failure
	// instead of another message's bytes (a no-op otherwise).
	poison(l.buf)
	l.buf = l.buf[:c]
	if cl < 2 {
		zcCounters.arenaPuts.Add(1)
		arenaPools[cl].Put(l)
		return
	}
	select {
	case arenaBigFree <- l:
		zcCounters.arenaPuts.Add(1)
	default:
		zcCounters.arenaDropped.Add(1)
	}
}

// LeaseReceiver is the optional owned-receive side of a Conn. RecvLease
// is Recv plus the lease on the returned message's buffer (nil when the
// bytes are not the arena's); the caller owns one reference and must
// Release it — or hand it to a decoder, whose release does — when the
// message dies. Raw transports implement it; a wrapper keeps buffer
// recycling intact by implementing it too, forwarding to its inner conn
// with the package-level RecvLease, so layering a conn never changes
// allocation behaviour. It is exported so wrappers outside this package
// can do the same. A conn without it behaves as before leases existed:
// its messages belong to the garbage collector.
type LeaseReceiver interface {
	RecvLease() (msg []byte, l *Lease, err error)
}

// RecvLease receives c's next message through its owned-receive method
// when it has one, and through Recv — with no lease — otherwise.
func RecvLease(c Conn) ([]byte, *Lease, error) {
	if lr, ok := c.(LeaseReceiver); ok {
		return lr.RecvLease()
	}
	msg, err := c.Recv()
	return msg, nil, err
}

// recvEscaped is Recv for a LeaseReceiver: the message leaves with no
// lease, so nothing can say when the caller is done with it and the
// buffer is settled as escaped.
func recvEscaped(c LeaseReceiver) ([]byte, error) {
	msg, l, err := c.RecvLease()
	l.release(true)
	return msg, err
}
