package rt

import (
	"context"
	"errors"
)

// ErrPromiseSettled reports a second Wait on an already-settled
// promise. A promise is single-shot: the first Wait consumes the reply
// (and with it the pooled decoder's ownership), so a repeat Wait has
// nothing left to deliver.
var ErrPromiseSettled = errors.New("rt: promise already settled")

// Promise is one in-flight asynchronous invocation: CallAsync marshals
// and transmits the request before returning, and the promise holds
// the registered reply slot until Wait collects it from the session's
// XID multiplexer. Because transmission happens at issue time, a
// caller can hold any number of promises in flight on one session and
// the server pipeline overlaps them exactly like concurrent sync
// callers — without one goroutine per call.
//
// Resolution semantics match the sync path: Wait runs the same
// classification and retry loop a sync CallIdem runs after its first
// attempt, so promise errors satisfy errors.Is(ErrRetryable /
// ErrNotRetryable / ErrSystem / ErrOverloaded) identically. When the
// client traces, the issue-time attempt span parents the resolution:
// the span is recorded when Wait collects the reply, covering the full
// issue-to-resolve interval.
//
// A promise must be settled by exactly one Wait. Wait blocks; it is
// safe to call from a different goroutine than the issuer, but not
// from several at once.
type Promise struct {
	// callDesc is the call itself — spec, observers, and the first
	// attempt's registered reply slot — exactly what a sync call keeps
	// on its stack between issue and resolve.
	callDesc
	// marshal is kept for the re-attempts Wait may make.
	marshal func(*Encoder)
	// issueErr is issue's outcome, handed to resolve by Wait.
	issueErr error
	settled  bool
}

// CallAsync begins one asynchronous invocation: the request is
// marshaled and handed to the transport before CallAsync returns, and
// the returned promise resolves it. CallAsync never blocks on the
// reply and never returns nil; issue-time failures (breaker open,
// poisoned session, send error) settle the promise so Wait reports
// them with sync-identical classification.
//
// Oneway operations have nothing to resolve — use Call.
func (c *Client) CallAsync(proc uint32, opName string, idempotent bool, marshal func(*Encoder)) *Promise {
	return c.CallAsyncCtx(nil, proc, opName, idempotent, marshal)
}

// CallAsyncCtx is CallAsync with a caller context (see CallCtx): the
// trace on ctx is continued, a ctx deadline travels on the wire and
// bounds Wait, and ctx cancellation settles Wait early — sending the
// cancel frame that releases the server-side work. A nil ctx is
// allowed and means "no propagated trace, deadline, or cancellation".
func (c *Client) CallAsyncCtx(ctx context.Context, proc uint32, opName string, idempotent bool, marshal func(*Encoder)) *Promise {
	p := &Promise{callDesc: callDesc{c: c, ctx: ctx, proc: proc, op: opName, idempotent: idempotent}, marshal: marshal}
	p.issueErr = p.issue(marshal)
	return p
}

// Wait blocks until the reply arrives (bounded by the client's Timeout
// per attempt), classifies failures, and — with a retry policy
// configured and the operation eligible — re-attempts synchronously
// inside Wait. On success the returned decoder is positioned at the
// reply payload and owned by the caller, who must release it with
// Decoder.Release after unmarshaling (generated promise wrappers do).
// Wait settles the promise; a second Wait returns ErrPromiseSettled.
func (p *Promise) Wait() (*Decoder, error) {
	if p.settled {
		return nil, ErrPromiseSettled
	}
	p.settled = true
	return p.resolve(p.issueErr, p.marshal)
}
