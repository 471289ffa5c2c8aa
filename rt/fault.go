// Fault injection: a Conn wrapper that misbehaves on purpose.
//
// The paper's evaluation (§4) assumes a well-behaved wire; the
// fault-tolerance layer cannot be tested against one. FaultConn wraps
// any Conn with a seeded, deterministic plan of failures — drops,
// delays, duplicates, reordering, bit-flip corruption, truncation, and
// mid-stream resets — so every failure mode the retry/redial/breaker
// machinery must survive is reproducible in tests and benchmarks: the
// same seed yields the same fault sequence.
//
// Faults model a lossy datagram link. Send-side faults damage requests
// in flight toward the peer; Recv-side faults damage replies on the way
// back. Stack a ChecksumConn *outside* the FaultConn (wrapping it) so
// corruption and truncation are detected and converted into drops, the
// way a real link layer discards damaged packets.
package rt

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultPlan describes the misbehaviour of a FaultConn. Each rate is the
// probability, per message and per direction, of one fault; at most one
// fault applies to any message (the rates must sum to at most 1).
type FaultPlan struct {
	// Seed makes the fault sequence reproducible. The same seed and the
	// same message sequence produce the same faults.
	Seed int64

	// Drop silently discards the message.
	Drop float64
	// Duplicate delivers the message twice (a retransmitting link).
	Duplicate float64
	// Reorder holds the message back and delivers it after the next one
	// (UDP-style reordering; meaningless for in-order streams, which is
	// why the chaos harness runs over the datagram-like Pipe).
	Reorder float64
	// Corrupt flips one random bit somewhere in the message.
	Corrupt float64
	// Truncate cuts the message short at a random point (a partial
	// write / short datagram).
	Truncate float64
	// Reset closes the underlying connection mid-stream; the operation
	// and every later one fails with ErrClosed.
	Reset float64
	// Delay stalls the message for a random duration up to DelayMax
	// (default 1ms) without otherwise harming it.
	Delay float64
	// DelayMax bounds injected delays.
	DelayMax time.Duration
}

func (p *FaultPlan) total() float64 {
	return p.Drop + p.Duplicate + p.Reorder + p.Corrupt + p.Truncate + p.Reset + p.Delay
}

// FaultStats counts faults a FaultConn has injected, per kind. All
// fields are atomic.
type FaultStats struct {
	Messages  atomic.Uint64 // messages that passed through (both directions)
	Drops     atomic.Uint64
	Dups      atomic.Uint64
	Reorders  atomic.Uint64
	Corrupts  atomic.Uint64
	Truncates atomic.Uint64
	Resets    atomic.Uint64
	Delays    atomic.Uint64
}

// faultKind enumerates the single fault chosen for one message.
type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultDup
	faultReorder
	faultCorrupt
	faultTruncate
	faultReset
	faultDelay
)

// FaultConn wraps an inner Conn and injects faults per its plan.
// Send remains safe for concurrent use (the plan's random stream is
// mutex-guarded, which also keeps the fault sequence deterministic
// under a deterministic message order); Recv remains single-reader.
type FaultConn struct {
	inner Conn
	plan  FaultPlan
	Stats FaultStats

	mu sync.Mutex
	// Separate random streams per direction: the fault sequence each
	// direction sees depends only on that direction's message order,
	// never on how Send and Recv goroutines interleave — which is what
	// makes a whole chaos run reproducible from one seed.
	sendRng *rand.Rand
	recvRng *rand.Rand
	// heldSend is a Send-side reordered message awaiting the next Send.
	heldSend []byte
	// heldRecv is a Recv-side message (reordered dup or held reorder)
	// to deliver on the next Recv, with the reference on its receive
	// buffer that delivery hands over.
	heldRecv []heldMsg
	closed   atomic.Bool
}

// heldMsg is one received message waiting in a FaultConn, with its lease.
type heldMsg struct {
	msg   []byte
	lease *Lease
}

// NewFaultConn wraps inner with a seeded fault plan. It returns an
// error if the fault rates sum past 1 (they are probabilities of
// mutually exclusive outcomes).
func NewFaultConn(inner Conn, plan FaultPlan) (*FaultConn, error) {
	if t := plan.total(); t > 1 {
		return nil, fmt.Errorf("rt: fault rates sum to %.3f > 1", t)
	}
	if plan.DelayMax <= 0 {
		plan.DelayMax = time.Millisecond
	}
	return &FaultConn{
		inner:   inner,
		plan:    plan,
		sendRng: rand.New(rand.NewSource(plan.Seed)),
		recvRng: rand.New(rand.NewSource(plan.Seed + 1)),
	}, nil
}

// roll picks at most one fault for the next message in one direction.
func (f *FaultConn) roll(rng *rand.Rand) faultKind {
	// Caller holds f.mu.
	r := rng.Float64()
	for _, c := range [...]struct {
		rate float64
		kind faultKind
	}{
		{f.plan.Drop, faultDrop},
		{f.plan.Duplicate, faultDup},
		{f.plan.Reorder, faultReorder},
		{f.plan.Corrupt, faultCorrupt},
		{f.plan.Truncate, faultTruncate},
		{f.plan.Reset, faultReset},
		{f.plan.Delay, faultDelay},
	} {
		if r < c.rate {
			return c.kind
		}
		r -= c.rate
	}
	return faultNone
}

// damage applies an in-place fault to a private copy of msg. It needs
// two random numbers at most; the caller holds f.mu.
func (f *FaultConn) damage(rng *rand.Rand, kind faultKind, msg []byte) []byte {
	switch kind {
	case faultCorrupt:
		f.Stats.Corrupts.Add(1)
		if len(msg) > 0 {
			out := append([]byte(nil), msg...)
			bit := rng.Intn(len(out) * 8)
			out[bit/8] ^= 1 << (bit % 8)
			return out
		}
	case faultTruncate:
		f.Stats.Truncates.Add(1)
		if len(msg) > 0 {
			n := rng.Intn(len(msg))
			return append([]byte(nil), msg[:n]...)
		}
		return msg
	}
	return msg
}

// Send transmits msg toward the peer, subject to the plan.
func (f *FaultConn) Send(msg []byte) error {
	if f.closed.Load() {
		return ErrClosed
	}
	f.mu.Lock()
	f.Stats.Messages.Add(1)
	kind := f.roll(f.sendRng)
	var first, second []byte
	switch kind {
	case faultDrop:
		f.Stats.Drops.Add(1)
		// Release any held reorder partner so it is not stranded.
		first, f.heldSend = f.heldSend, nil
		f.mu.Unlock()
		if first != nil {
			return f.inner.Send(first)
		}
		return nil
	case faultDup:
		f.Stats.Dups.Add(1)
		first, second = msg, msg
	case faultReorder:
		if f.heldSend == nil {
			f.Stats.Reorders.Add(1)
			// Hold a private copy: the caller may reuse msg after
			// Send returns (clone, so no aliasing of the argument).
			f.heldSend = append([]byte(nil), msg...)
			f.mu.Unlock()
			return nil
		}
		first, second = msg, f.heldSend
		f.heldSend = nil
	case faultCorrupt, faultTruncate:
		first = f.damage(f.sendRng, kind, msg)
	case faultReset:
		f.Stats.Resets.Add(1)
		f.mu.Unlock()
		f.Close()
		return ErrClosed
	case faultDelay:
		f.Stats.Delays.Add(1)
		d := time.Duration(f.sendRng.Int63n(int64(f.plan.DelayMax)))
		f.mu.Unlock()
		time.Sleep(d)
		return f.inner.Send(msg)
	default:
		first = msg
	}
	// A previously held reordered message goes out after this one.
	if second == nil && f.heldSend != nil {
		second, f.heldSend = f.heldSend, nil
	}
	f.mu.Unlock()
	if err := f.inner.Send(first); err != nil {
		return err
	}
	if second != nil {
		return f.inner.Send(second)
	}
	return nil
}

// Recv returns the next message from the peer, subject to the plan.
func (f *FaultConn) Recv() ([]byte, error) { return recvEscaped(f) }

// RecvLease is Recv forwarding the inner conn's lease (see
// LeaseReceiver): a duplicated message is retained once more, a dropped
// or damaged one (the damage is done to a private copy) goes home.
func (f *FaultConn) RecvLease() ([]byte, *Lease, error) {
	for {
		f.mu.Lock()
		if len(f.heldRecv) > 0 {
			h := f.heldRecv[0]
			f.heldRecv[0] = heldMsg{}
			f.heldRecv = f.heldRecv[1:]
			f.mu.Unlock()
			return h.msg, h.lease, nil
		}
		f.mu.Unlock()

		msg, lease, err := RecvLease(f.inner)
		if err != nil {
			return nil, nil, err
		}

		f.mu.Lock()
		f.Stats.Messages.Add(1)
		kind := f.roll(f.recvRng)
		switch kind {
		case faultDrop:
			f.Stats.Drops.Add(1)
			f.mu.Unlock()
			lease.Release()
			continue
		case faultDup:
			f.Stats.Dups.Add(1)
			lease.Retain()
			f.heldRecv = append(f.heldRecv, heldMsg{msg, lease})
			f.mu.Unlock()
			return msg, lease, nil
		case faultReorder:
			// Deliver the *next* message first, queueing this one behind
			// it; if the link goes quiet instead the held message is
			// delivered anyway, so nothing is lost. The swapped-ahead
			// message is not rolled again (one fault per message pair).
			f.Stats.Reorders.Add(1)
			f.mu.Unlock()
			next, nextLease, err := RecvLease(f.inner)
			if err != nil {
				return msg, lease, nil
			}
			f.mu.Lock()
			f.heldRecv = append(f.heldRecv, heldMsg{msg, lease})
			f.mu.Unlock()
			return next, nextLease, nil
		case faultCorrupt, faultTruncate:
			// The damage is done to a private copy (an empty message has
			// no bytes to keep): the original goes home.
			msg = f.damage(f.recvRng, kind, msg)
			f.mu.Unlock()
			lease.Release()
			return msg, nil, nil
		case faultReset:
			f.Stats.Resets.Add(1)
			f.mu.Unlock()
			lease.Release()
			f.Close()
			return nil, nil, ErrClosed
		case faultDelay:
			f.Stats.Delays.Add(1)
			d := time.Duration(f.recvRng.Int63n(int64(f.plan.DelayMax)))
			f.mu.Unlock()
			time.Sleep(d)
			return msg, lease, nil
		default:
			f.mu.Unlock()
			return msg, lease, nil
		}
	}
}

// Close closes the underlying connection.
func (f *FaultConn) Close() error {
	f.closed.Store(true)
	return f.inner.Close()
}
