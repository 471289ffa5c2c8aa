// The zero-copy send path: encoder alias segments and vectored
// transmission.
//
// Generated -zerocopy stubs call PutBytesZC for every region the MIR
// alias pass proved alias-safe (and only those — the emitter refuses
// unproven regions, and the zerocopy verifier re-checks every proof at
// compile time). Instead of copying the payload into the marshal
// buffer, the encoder seals the buffered prefix as a segment and
// appends a segment referencing the caller's bytes in place. The send
// path then hands the whole segment list to the transport:
//
//   - TCP implements VectoredSender and writes header + segments with
//     one writev (net.Buffers), so proven payloads cross the socket
//     without ever being copied into runtime memory.
//   - Everything else (UDP datagrams, in-process pipes, wrapped conns
//     such as checksum/fault/batch) falls back to flattening: Bytes
//     assembles the contiguous message and the ordinary Send runs.
//     Correctness never depends on the transport; only the copy count
//     does.
//
// The lifetime obligation the prover discharged — no mutation between
// marshal and send — is honored structurally: the vectored write
// completes before Send returns, and Conn's documented contract
// ("the buffer may be reused by the caller after Send returns")
// extends unchanged to aliased user memory.
package rt

import "sync/atomic"

// ZeroCopyThreshold is the segment size below which PutBytesZC copies
// instead of aliasing: tiny segments cost more in iovec bookkeeping
// than the copy they avoid. Set once at startup if tuning is needed.
var ZeroCopyThreshold = 512

// zcCounters tracks the zero-copy fast path process-wide, the dynamic
// counterpart of the compiler's alias-pass counters: tests prove "zero
// marshal-side copies" by asserting CopiedBytes stays flat while
// AliasedBytes and VectoredSends advance.
var zcCounters struct {
	aliasSegs      atomic.Uint64
	aliasedBytes   atomic.Uint64
	copiedBytes    atomic.Uint64
	vectoredSends  atomic.Uint64
	flattenedSends atomic.Uint64
	aliasViews     atomic.Uint64
	arenaGets      atomic.Uint64
	arenaPuts      atomic.Uint64
	arenaPinned    atomic.Uint64
	arenaDropped   atomic.Uint64
}

// ZeroCopyStats is a point-in-time copy of the zero-copy counters.
type ZeroCopyStats struct {
	// AliasSegs counts payload segments sent by reference;
	// AliasedBytes their total size. CopiedBytes counts bytes that
	// went through PutBytesZC but were copied anyway (below the
	// threshold): on a ≥ threshold workload it must not move.
	AliasSegs    uint64
	AliasedBytes uint64
	CopiedBytes  uint64
	// VectoredSends counts messages written with writev;
	// FlattenedSends messages that carried alias segments but had to
	// be assembled for a non-vectored transport.
	VectoredSends  uint64
	FlattenedSends uint64
	// AliasViews counts decode-side views handed out by AliasNext.
	AliasViews uint64
	// ArenaGets/ArenaPuts track the receive-arena pool; ArenaPinned
	// counts arenas whose recycle was forfeited because alias views
	// were outstanding at Release (ownership transferred to the
	// views; the garbage collector reclaims the arena when they die).
	// ArenaDropped counts buffers released un-aliased that no pool
	// kept (the big class's free list was full, or the buffer was
	// message-sized), which closes the ledger: with nothing in flight,
	// ArenaGets == ArenaPuts + ArenaPinned + ArenaDropped.
	ArenaGets    uint64
	ArenaPuts    uint64
	ArenaPinned  uint64
	ArenaDropped uint64
}

// Sub returns the counter deltas since an earlier snapshot.
func (s ZeroCopyStats) Sub(earlier ZeroCopyStats) ZeroCopyStats {
	return ZeroCopyStats{
		AliasSegs:      s.AliasSegs - earlier.AliasSegs,
		AliasedBytes:   s.AliasedBytes - earlier.AliasedBytes,
		CopiedBytes:    s.CopiedBytes - earlier.CopiedBytes,
		VectoredSends:  s.VectoredSends - earlier.VectoredSends,
		FlattenedSends: s.FlattenedSends - earlier.FlattenedSends,
		AliasViews:     s.AliasViews - earlier.AliasViews,
		ArenaGets:      s.ArenaGets - earlier.ArenaGets,
		ArenaPuts:      s.ArenaPuts - earlier.ArenaPuts,
		ArenaPinned:    s.ArenaPinned - earlier.ArenaPinned,
		ArenaDropped:   s.ArenaDropped - earlier.ArenaDropped,
	}
}

// ReadZeroCopyStats snapshots the process-wide zero-copy counters.
func ReadZeroCopyStats() ZeroCopyStats {
	return ZeroCopyStats{
		AliasSegs:      zcCounters.aliasSegs.Load(),
		AliasedBytes:   zcCounters.aliasedBytes.Load(),
		CopiedBytes:    zcCounters.copiedBytes.Load(),
		VectoredSends:  zcCounters.vectoredSends.Load(),
		FlattenedSends: zcCounters.flattenedSends.Load(),
		AliasViews:     zcCounters.aliasViews.Load(),
		ArenaGets:      zcCounters.arenaGets.Load(),
		ArenaPuts:      zcCounters.arenaPuts.Load(),
		ArenaPinned:    zcCounters.arenaPinned.Load(),
		ArenaDropped:   zcCounters.arenaDropped.Load(),
	}
}

// PutBytesZC appends s by reference when it clears the threshold, by
// copy otherwise. Only generated stubs with a prover-signed alias-safe
// region call this; the contract is the Conn send contract: the caller
// must not mutate s until the enclosing Send returns (which the
// synchronous stub shape guarantees — marshal and send share a call
// frame).
func (e *Encoder) PutBytesZC(s []byte) {
	if len(s) < ZeroCopyThreshold {
		zcCounters.copiedBytes.Add(uint64(len(s)))
		e.PutBytes(s)
		return
	}
	e.sealSeg()
	e.segs = append(e.segs, s[:len(s):len(s)])
	e.aliasBytes += len(s)
	e.nAlias++
	zcCounters.aliasSegs.Add(1)
	zcCounters.aliasedBytes.Add(uint64(len(s)))
}

// sealSeg captures the not-yet-captured buffered prefix as a segment.
// Sealed windows stay valid across later growth: appends write at or
// beyond the seal point, and a reallocation copies the prefix into the
// new array while the window keeps referencing the old one — whose
// bytes never change again.
func (e *Encoder) sealSeg() {
	if len(e.buf) > e.sealed {
		e.segs = append(e.segs, e.buf[e.sealed:len(e.buf):len(e.buf)])
	}
	e.sealed = len(e.buf)
}

// clearSegs drops the segment list and nils the entries so neither the
// pool nor a retained Encoder pins caller memory.
func (e *Encoder) clearSegs() {
	for i := range e.segs {
		e.segs[i] = nil
	}
	e.segs = e.segs[:0]
	e.sealed = 0
	e.aliasBytes = 0
	e.nAlias = 0
}

// Vectored returns the message as an ordered segment list when alias
// segments are outstanding, or ok=false when the contiguous buffer is
// the whole message (the common copy path). The returned segments are
// valid until the encoder's next Reset.
func (e *Encoder) Vectored() ([][]byte, bool) {
	if e.nAlias == 0 {
		return nil, false
	}
	e.sealSeg()
	return e.segs, true
}

// VectoredSender is implemented by transports that can transmit a
// message assembled from multiple segments without flattening them
// first (writev). Like Send, SendVectored must complete the write
// before returning and must serialize whole messages across concurrent
// senders.
type VectoredSender interface {
	SendVectored(segs [][]byte) error
}

// SendVectored transmits a multi-segment message over c: directly when
// the transport can scatter/gather, otherwise by flattening into one
// buffer (the fallback every wrapped or datagram transport takes).
func SendVectored(c Conn, segs [][]byte) error {
	if vs, ok := c.(VectoredSender); ok {
		zcCounters.vectoredSends.Add(1)
		return vs.SendVectored(segs)
	}
	zcCounters.flattenedSends.Add(1)
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	flat := make([]byte, 0, n)
	for _, s := range segs {
		flat = append(flat, s...)
	}
	return c.Send(flat)
}

// sendEncoded transmits an encoder's message over c, taking the
// vectored path when alias segments are outstanding and the transport
// supports it. This is the single seam every runtime send of a
// stub-built message goes through.
func sendEncoded(c Conn, e *Encoder) error {
	segs, ok := e.Vectored()
	if !ok {
		return c.Send(e.Bytes())
	}
	if vs, vok := c.(VectoredSender); vok {
		zcCounters.vectoredSends.Add(1)
		return vs.SendVectored(segs)
	}
	zcCounters.flattenedSends.Add(1)
	return c.Send(e.Bytes())
}
