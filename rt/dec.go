package rt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// ErrTruncated reports a message shorter than its contents claim.
var ErrTruncated = errors.New("rt: truncated message")

// ErrBound reports a counted field exceeding its declared bound.
var ErrBound = errors.New("rt: length exceeds declared bound")

// ErrBadConst reports a protocol constant with the wrong value.
var ErrBadConst = errors.New("rt: bad protocol constant")

// ErrBadUnion reports an unknown union discriminator.
var ErrBadUnion = errors.New("rt: unknown union discriminator")

// Decoder reads one message payload. Errors are sticky: after a failed
// Ensure or Len the decoder returns zero values, and Err reports the
// first failure.
type Decoder struct {
	buf []byte
	pos int
	err error
	// lim is Ensure's fast-path limit: len(buf) normally, -1 while
	// counting is enabled. Ensure tests `lim - pos < n`, so with
	// lim == len(buf) it is exactly the availability check, and with
	// lim == -1 it always routes through ensureSlow, where the
	// counters live (the same trick as Encoder.lim: the disabled
	// path stays a single compare, which keeps the per-datum checked
	// reads no more expensive than before counting existed).
	lim int
	// Observability counters (see DecStats). Plain integers: a Decoder
	// is single-reader by contract.
	stats   bool
	nEnsure uint64
	nFail   uint64
	// pooled marks a runtime-owned decoder handed out by the call
	// pipeline; Release returns it to the pool (see pool.go). sink,
	// when non-nil, receives the drained counters at Release time so
	// unmarshal-side checks performed after Call returns still reach
	// the registry that observed the call.
	pooled bool
	sink   *Metrics
	// lease, when non-nil, is this reader's reference on the receive
	// buffer backing buf (see arena.go); aliased records that AliasNext
	// handed out a view into it whose borrow has not been ended, which
	// makes the release an escaped one: the buffer is pinned, not
	// recycled.
	lease   *Lease
	aliased bool
	// slab is the message's parameter storage (see Slab): len is what
	// has been carved so far, cap what was provisioned. Strings and
	// byte sequences the stub hands to its caller live here, so the
	// decoder only ever holds the reference until the next Reset.
	slab []byte
}

// relim recomputes the fast-path limit after anything that rebinds
// d.buf or changes the counting mode.
func (d *Decoder) relim() {
	if d.stats {
		d.lim = -1 // lim-pos < n for every n >= 0: always take ensureSlow
	} else {
		d.lim = len(d.buf)
	}
}

// EnableStats turns space-check counting on or off (off by default).
// The runtime enables it when a Metrics registry is attached; with
// counting off, Ensure and Fail do not touch the counters.
func (d *Decoder) EnableStats(on bool) {
	d.stats = on
	d.relim()
}

// DecStats reports a decoder's space-check counters: EnsureChecks is
// the number of Ensure calls (the paper's unmarshal-side truncation
// checks — optimized stubs emit one per message segment, naive stubs
// one per datum), Failures the number of recorded decode failures.
type DecStats struct {
	EnsureChecks uint64 `json:"ensure_checks"`
	Failures     uint64 `json:"failures"`
}

// Stats returns the counters accumulated since construction or the
// last TakeStats. Reset does not clear them (they span a decoder's
// whole reuse lifetime).
func (d *Decoder) Stats() DecStats {
	return DecStats{EnsureChecks: d.nEnsure, Failures: d.nFail}
}

// TakeStats returns the accumulated counters and zeroes them (the
// runtime drains per-call deltas into a Metrics registry this way).
func (d *Decoder) TakeStats() DecStats {
	s := d.Stats()
	d.nEnsure, d.nFail = 0, 0
	return s
}

// Size returns the total payload length the decoder was bound to.
func (d *Decoder) Size() int { return len(d.buf) }

// NewDecoder reads from payload.
func NewDecoder(payload []byte) *Decoder {
	return &Decoder{buf: payload, lim: len(payload)}
}

// Reset rebinds the decoder to a new payload. Any lease is dropped
// without being released (the runtime releases it first, in Release);
// the runtime binds received messages with resetLease.
func (d *Decoder) Reset(payload []byte) {
	d.buf = payload
	d.pos = 0
	d.err = nil
	d.lease = nil
	d.aliased = false
	d.slab = nil
	d.relim()
}

// resetLease rebinds the decoder to a payload inside l's buffer, taking
// over one reference: Release gives it back, recycling the buffer if it
// was the last one — or pinning it for the garbage collector if
// AliasNext handed out views whose borrow nobody ended (an escaped view
// must never see recycled bytes). payload may be any window of the
// buffer: a batch part, or a message past its stripped annotations.
func (d *Decoder) resetLease(payload []byte, l *Lease) {
	d.Reset(payload)
	d.lease = l
}

// AliasNext is Next plus a borrow note: the returned window aliases
// the receive buffer, so unless EndBorrow declares the view returned
// the decoder's Release pins the buffer instead of recycling it.
// Generated -zerocopy stubs call it for prover-approved byte regions;
// the arenalife analyzer checks that such views do not outlive their
// borrow.
func (d *Decoder) AliasNext(n int) []byte {
	if d.lease != nil {
		d.aliased = true
		zcCounters.aliasViews.Add(1)
	}
	return d.Next(n)
}

// EndBorrow declares every view AliasNext handed out returned: nothing
// reads them from here on, so Release may recycle the receive buffer.
// Generated -zerocopy server skeletons call it once the work function
// has returned and the reply is marshaled — the paper's (and CORBA's)
// rule that an `in` argument is valid until the work function returns;
// an implementation that wants the bytes longer copies them. Client
// stubs never call it (a zero-copy result is handed to the application
// with no scope), and neither does a dispatcher that cannot vouch for
// its handler: both keep the pin.
func (d *Decoder) EndBorrow() { d.aliased = false }

// Err returns the sticky error, if any.
func (d *Decoder) Err() error { return d.err }

// Pos returns the current read offset.
func (d *Decoder) Pos() int { return d.pos }

// Remaining returns the unread byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Fail records err (if none is recorded yet) and returns the sticky
// error.
func (d *Decoder) Fail(err error) error {
	if d.stats {
		d.nFail++
	}
	if d.err == nil {
		d.err = err
	}
	return d.err
}

// Ensure checks that n more bytes are available: the single check per
// segment in optimized stubs.
func (d *Decoder) Ensure(n int) bool {
	if d.lim-d.pos < n {
		return d.ensureSlow(n)
	}
	return true
}

// ensureSlow is Ensure's out-of-line path: a genuine availability
// failure, or — while counting is enabled — every Ensure call, so the
// counters never touch the inlined fast path. Kept out of line (and
// out of Ensure's inlining budget) so the per-datum checked reads stay
// as cheap as before counting existed.
//
//go:noinline
func (d *Decoder) ensureSlow(n int) bool {
	if d.stats {
		d.nEnsure++
	}
	if len(d.buf)-d.pos < n {
		d.Fail(fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrTruncated, n, d.pos, len(d.buf)-d.pos))
		return false
	}
	return true
}

// EnsureDyn checks base + per*count bytes.
func (d *Decoder) EnsureDyn(base, per, count int) bool {
	return d.Ensure(base + per*count)
}

// Next consumes an n-byte window (availability ensured).
func (d *Decoder) Next(n int) []byte {
	w := d.buf[d.pos : d.pos+n]
	d.pos += n
	return w
}

// Slab provisions the message's parameter storage: one allocation that
// NextString and SlabBytes carve the message's strings and byte
// sequences from, instead of one allocation per datum. fixed is the
// compiler's static minimum of the unread bytes that are *not* such
// data (length words, scalars, fixed arrays: per-iteration minimum x
// decoded count + the fixed tail), so the capacity — what remains minus
// fixed — never exceeds the received message and is exact up to
// alignment padding. The capacity is a provisioning hint only: a carve
// that does not fit allocates on its own, and a message too short for
// its own fixed part provisions nothing (its decode fails at the next
// Ensure). Space left by an earlier Slab call on the same message is
// kept when it suffices.
func (d *Decoder) Slab(fixed int) {
	if fixed < 0 {
		fixed = 0 // whatever the caller computed, never more than what is unread
	}
	if n := len(d.buf) - d.pos - fixed; n > cap(d.slab)-len(d.slab) {
		d.slab = make([]byte, 0, n)
	}
}

// carve takes the next n bytes of the slab as a window capped at its
// own length (an append by the holder reallocates rather than running
// into the next value), or returns nil when nothing was provisioned or
// it does not fit.
func (d *Decoder) carve(n int) []byte {
	off := len(d.slab)
	if n <= 0 || n > cap(d.slab)-off {
		return nil
	}
	d.slab = d.slab[:off+n]
	return d.slab[off : off+n : off+n]
}

// SlabBytes returns n bytes of caller-owned storage for a decoded byte
// sequence: a slab window when one fits, a fresh allocation otherwise.
func (d *Decoder) SlabBytes(n int) []byte {
	if b := d.carve(n); b != nil {
		return b
	}
	return make([]byte, n)
}

// SlabString turns the window the immediately preceding SlabBytes
// returned into a string without copying it. This is the runtime's one
// unsafe.String, and it is sound because slab bytes are handed out
// exactly once (carve only moves forward, windows are capped, and the
// decoder drops its slab reference at Reset/Release rather than reusing
// the memory), so once the stub that filled b lets go of it nothing can
// write those bytes again. Anything that is not the slab's most recent
// window — a SlabBytes fallback allocation, foreign bytes — is copied.
// The string keeps its whole slab reachable: retaining one decoded
// string retains at most one message's worth of parameter storage.
func (d *Decoder) SlabString(b []byte) string {
	if n := len(b); n > 0 && n <= len(d.slab) && &b[0] == &d.slab[len(d.slab)-n] {
		return unsafe.String(&b[0], n)
	}
	return string(b)
}

// NextString consumes an n-byte window (availability ensured) as a
// string, stored in the slab when it fits.
func (d *Decoder) NextString(n int) string {
	w := d.Next(n)
	if b := d.carve(n); b != nil {
		copy(b, w)
		return d.SlabString(b)
	}
	return string(w)
}

// Align skips to an n-byte boundary. n must be a power of two (every
// wire.Format alignment is).
func (d *Decoder) Align(n int) {
	d.pos += -d.pos & (n - 1)
	if d.pos > len(d.buf) {
		d.pos = len(d.buf)
		d.Fail(ErrTruncated)
	}
}

// Unchecked reads (availability ensured by a preceding Ensure).

func (d *Decoder) U8() byte {
	v := d.buf[d.pos]
	d.pos++
	return v
}

func (d *Decoder) U16BE() uint16 { return binary.BigEndian.Uint16(d.Next(2)) }
func (d *Decoder) U16LE() uint16 { return binary.LittleEndian.Uint16(d.Next(2)) }
func (d *Decoder) U32BE() uint32 { return binary.BigEndian.Uint32(d.Next(4)) }
func (d *Decoder) U32LE() uint32 { return binary.LittleEndian.Uint32(d.Next(4)) }
func (d *Decoder) U64BE() uint64 { return binary.BigEndian.Uint64(d.Next(8)) }
func (d *Decoder) U64LE() uint64 { return binary.LittleEndian.Uint64(d.Next(8)) }

// Checked reads: the slow path with one availability test per datum.

func (d *Decoder) U8C() byte {
	if !d.Ensure(1) {
		return 0
	}
	return d.U8()
}

func (d *Decoder) U16BEC() uint16 {
	if !d.Ensure(2) {
		return 0
	}
	return d.U16BE()
}

func (d *Decoder) U16LEC() uint16 {
	if !d.Ensure(2) {
		return 0
	}
	return d.U16LE()
}

func (d *Decoder) U32BEC() uint32 {
	if !d.Ensure(4) {
		return 0
	}
	return d.U32BE()
}

func (d *Decoder) U32LEC() uint32 {
	if !d.Ensure(4) {
		return 0
	}
	return d.U32LE()
}

func (d *Decoder) U64BEC() uint64 {
	if !d.Ensure(8) {
		return 0
	}
	return d.U64BE()
}

func (d *Decoder) U64LEC() uint64 {
	if !d.Ensure(8) {
		return 0
	}
	return d.U64LE()
}

// Len reads a u32 count (availability of the 4 count bytes must already
// be ensured) and validates it against bound (0 means the full u32
// range) and, through elemMin, against the remaining payload. nul
// subtracts the CDR string NUL from the returned count.
func (d *Decoder) Len(order ByteOrder, bound uint32, nul bool, elemMin int) (int, bool) {
	var n uint32
	if order == BE {
		n = d.U32BE()
	} else {
		n = d.U32LE()
	}
	return d.CheckLen(n, bound, nul, elemMin)
}

// CheckLen validates an already-read count against its bound and the
// remaining payload. nul subtracts the CDR string NUL. elemMin is the
// least number of wire bytes one element occupies (the compiler's
// per-iteration minimum; anything below 1 counts as 1): a count whose
// elements cannot fit in what is left of the message is rejected here,
// before the caller allocates count elements of any presented size.
func (d *Decoder) CheckLen(n uint32, bound uint32, nul bool, elemMin int) (int, bool) {
	if nul {
		if n == 0 {
			d.Fail(fmt.Errorf("%w: zero-length NUL-counted string", ErrBadConst))
			return 0, false
		}
		n--
	}
	if bound != 0 && n > bound {
		d.Fail(fmt.Errorf("%w: %d > %d", ErrBound, n, bound))
		return 0, false
	}
	if elemMin < 1 {
		elemMin = 1
	}
	// n < 2^32 and elemMin is a compile-time constant far below 2^31,
	// so the product cannot overflow int64.
	if int64(n)*int64(elemMin) > int64(len(d.buf)-d.pos) {
		d.Fail(fmt.Errorf("%w: count %d x %d bytes exceeds remaining %d bytes",
			ErrTruncated, n, elemMin, len(d.buf)-d.pos))
		return 0, false
	}
	return int(n), true
}

// CheckConst consumes an already-read value check failure.
func (d *Decoder) CheckConst(got, want uint64) bool {
	if got != want {
		d.Fail(fmt.Errorf("%w: got %#x, want %#x", ErrBadConst, got, want))
		return false
	}
	return true
}

// ByteOrder tags generated call sites.
type ByteOrder int

const (
	BE ByteOrder = iota
	LE
)

// CheckBound panics when a counted value exceeds its declared IDL bound:
// a marshal-side contract violation by the caller, analogous to an
// out-of-range slice index.
func CheckBound(n int, bound uint32) {
	if bound != 0 && n > int(bound) {
		panic(fmt.Sprintf("rt: length %d exceeds declared bound %d", n, bound))
	}
}
