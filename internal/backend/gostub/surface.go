package gostub

import (
	"fmt"
	"strings"

	"flick/internal/backend"
	"flick/internal/pgen"
	"flick/internal/pres"
	"flick/internal/presc"
)

// A Surface is one presentation of the generated client API over the
// shared marshal/unmarshal core: the MIR walk renders the wire code
// exactly once per operation, and each surface contributes only its
// call-shape shell (the paper's AOI→PRES-C flexibility claim, applied
// to call styles instead of language mappings).
//
// Surfaces are additive: every surface in Config.Surfaces emits its
// methods onto the same generated client type, so one client value
// exposes Sum, SumAsync, and FetchStream side by side. A surface never
// emits marshal code — it calls the Marshal*/Unmarshal* functions the
// core emitted — which is what keeps N surfaces O(N) shells over O(1)
// optimized wire code.
type Surface interface {
	// Name is the surface's selector spelling ("sync", "async",
	// "stream") as accepted by ParseSurfaces.
	Name() string
	// clientFuncs renders this surface's client-side methods (and any
	// per-operation support types) for the interface's stubs.
	clientFuncs(e *emitter, clientType string, stubs []*presc.Stub)
}

// DefaultSurfaces is the classic presentation: blocking sync stubs
// only. A nil Config.Surfaces means exactly this, which is what keeps
// the refactored emitter byte-identical for every pre-surface caller.
func DefaultSurfaces() []Surface { return []Surface{SyncSurface{}} }

// ParseSurfaces resolves a comma-separated surface list ("sync,async")
// into Surface values, preserving order and rejecting duplicates.
func ParseSurfaces(list string) ([]Surface, error) {
	var out []Surface
	seen := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("gostub: duplicate surface %q", name)
		}
		seen[name] = true
		switch name {
		case "sync":
			out = append(out, SyncSurface{})
		case "async":
			out = append(out, AsyncSurface{})
		case "stream":
			out = append(out, StreamSurface{})
		case "ctx":
			out = append(out, CtxSurface{})
		default:
			return nil, fmt.Errorf("gostub: unknown surface %q (supported: sync, async, stream, ctx)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gostub: empty surface list")
	}
	return out, nil
}

// surfaces returns the configured surface set, defaulting to sync.
func (e *emitter) surfaces() []Surface {
	if len(e.cfg.Surfaces) == 0 {
		return DefaultSurfaces()
	}
	return e.cfg.Surfaces
}

// inParamDecls renders the request-parameter declarations of a stub's
// method signature (the "in" half of the sync signature: value-typed,
// presentation spellings).
func inParamDecls(s *presc.Stub) []string {
	var out []string
	for _, p := range s.RequestParams() {
		out = append(out, p.Name+" "+paramCType(p, p.Request))
	}
	return out
}

// paramCType is a parameter's presented type spelling.
func paramCType(p *presc.ParamPres, n *pres.Node) string {
	if ct, _ := p.CType.(string); ct != "" {
		return ct
	}
	return ctypeOf(n)
}

// replyResults renders the reply side of a stub's method signature: the
// result declarations (ret first, then out/inout params with the sync
// signature's "Out" suffix for inout, then err), and the assignment
// targets matching them for the `ret, x, err = Unmarshal...Reply(d)`
// line.
func replyResults(s *presc.Stub) (decls, names []string) {
	if s.Result != nil {
		decls, names = append(decls, "ret "+paramCType(s.Result, s.Result.Reply)), append(names, "ret")
	}
	for _, p := range s.ReplyParams() {
		name := p.Name
		if p.Role == presc.RoleBoth {
			name += "Out"
		}
		decls, names = append(decls, name+" "+paramCType(p, p.Reply)), append(names, name)
	}
	return append(decls, "err error"), append(names, "err")
}

// requestFn renders the closure a call hands the runtime to marshal the
// stub's request (aggregates by address).
func (e *emitter) requestFn(s *presc.Stub) string {
	return fmt.Sprintf("func(e *rt.Encoder) {\nMarshal%s%sRequest(%s)\n}", stubPrefix(s), e.cfg.FuncSuffix,
		strings.Join(argExprs("", backend.Roots(s, false)), ", "))
}

// replyTail emits what every reply-bearing surface ends in: obtain the
// reply decoder from wait, decode it with unmarshal into results, and
// return. Pooled buffer-ownership contract: the decoder belongs to this
// call and goes back to the runtime pool once the results are
// unmarshaled (they never alias the wire buffer).
func (e *emitter) replyTail(wait, results, unmarshal string) {
	e.pf("var d *rt.Decoder\nd, err = %s\nif err != nil {\nreturn\n}\n%s = %s(d)\nd.Release()\nreturn\n}\n", wait, results, unmarshal)
}

// SyncSurface is the classic blocking presentation: one method per
// operation, call-and-wait, reply decoded in the caller's frame. It is
// the pre-refactor emitter output, byte for byte.
type SyncSurface struct{}

func (SyncSurface) Name() string { return "sync" }

func (SyncSurface) clientFuncs(e *emitter, clientType string, stubs []*presc.Stub) {
	for _, s := range stubs {
		// Stream operations have no single-reply shape; they are
		// presented by StreamSurface.
		if !s.Stream {
			e.callMethod(clientType, s, false)
		}
	}
}

// callMethod emits the blocking call of one operation: the sync method,
// or with ctx its <Op>Ctx variant, which differs by the context
// parameter and the runtime entry point that takes it.
func (e *emitter) callMethod(clientType string, s *presc.Stub, ctx bool) {
	goOp := pgen.GoName(s.Op)
	decls, names := replyResults(s)
	sig, entry := s.CDecl.(string), "CallIdem("
	if !ctx {
		e.pf("// %s invokes the %s operation.", goOp, s.Op)
	} else {
		e.usesContext = true
		params := append([]string{"ctx context.Context"}, inParamDecls(s)...)
		sig = fmt.Sprintf("%sCtx(%s) (%s)", goOp, strings.Join(params, ", "), strings.Join(decls, ", "))
		entry = "CallIdemCtx(ctx, "
		e.pf(`// %sCtx invokes the %s operation under a caller context:
// the context's deadline travels on the wire and bounds the
// server-side work, its trace is continued, and cancellation
// aborts the reply wait while a cancel frame releases the
// server-side work.`, goOp, s.Op)
	}
	// The idempotency flag rides from the IDL's //flick:idempotent
	// annotation into the runtime's retry policy: only idempotent
	// operations may be re-sent after an ambiguous failure.
	call := fmt.Sprintf("c.C.%s%d, %q, %v, %v, %s)", entry, s.OpCode, s.OpName, s.Oneway, s.Idempotent, e.requestFn(s))
	e.pf("func (c *%s) %s {", clientType, sig)
	if s.Oneway {
		e.pf("_, err = %s\nif err != nil {\nreturn\n}\nreturn\n}\n", call)
		return
	}
	e.replyTail(call, strings.Join(names, ", "), "Unmarshal"+stubPrefix(s)+e.cfg.FuncSuffix+"Reply")
}

// AsyncSurface is the promise presentation: <Op>Async marshals and
// transmits immediately and returns a typed promise; the reply is
// claimed by Wait, so a caller can hold many calls in flight on one
// session (the XID multiplexer resolves them in any order).
type AsyncSurface struct{}

func (AsyncSurface) Name() string { return "async" }

func (AsyncSurface) clientFuncs(e *emitter, clientType string, stubs []*presc.Stub) {
	for _, s := range stubs {
		// Oneway calls have nothing to resolve; streams have their own
		// surface.
		if !s.Stream && !s.Oneway {
			e.asyncMethod(clientType, s)
		}
	}
}

func (e *emitter) asyncMethod(clientType string, s *presc.Stub) {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	promiseType := prefix + "Promise"
	goOp := pgen.GoName(s.Op)
	decls, names := replyResults(s)

	e.pf(`// %[1]sAsync begins the %[2]s operation without waiting for the
// reply: the request is marshaled and transmitted before this
// method returns, and the promise resolves when Wait collects
// the reply from the session's multiplexer.
func (c *%[3]s) %[1]sAsync(%[4]s) *%[5]s {
return &%[5]s{p: c.C.CallAsync(%[6]d, %[7]q, %[8]v, %[9]s)}
}

// %[5]s is one in-flight %[2]s invocation.
type %[5]s struct {
p *rt.Promise
}

// Wait blocks until the reply arrives and decodes it. The retry
// and error classification are the sync path's, applied at
// resolution time; Wait settles the promise and may be called
// once.
func (pr *%[5]s) Wait() (%[10]s) {`, goOp, s.Op, clientType, strings.Join(inParamDecls(s), ", "), promiseType,
		s.OpCode, s.OpName, s.Idempotent, e.requestFn(s), strings.Join(decls, ", "))
	e.replyTail("pr.p.Wait()", strings.Join(names, ", "), "Unmarshal"+prefix+"Reply")
}

// CtxSurface is the context presentation: <Op>Ctx takes a caller
// context.Context ahead of the request parameters. The context's
// deadline travels on the wire as the runtime's deadline annotation
// (the server inherits the remaining budget and sheds expired work
// before dispatch), its trace context is continued, and its
// cancellation aborts the reply wait — sending the cancel frame that
// releases the server-side work. Stream operations are skipped (the
// stream surface owns their shape; rt.Client.CallStreamCtx presents
// them at the runtime layer).
type CtxSurface struct{}

func (CtxSurface) Name() string { return "ctx" }

func (CtxSurface) clientFuncs(e *emitter, clientType string, stubs []*presc.Stub) {
	for _, s := range stubs {
		if !s.Stream {
			e.callMethod(clientType, s, true)
		}
	}
}

// StreamSurface is the server-push presentation for //flick:stream
// operations: <Op>Stream sends the request once and returns a typed
// receiving half whose chunks the server pushes under a credit window.
type StreamSurface struct{}

func (StreamSurface) Name() string { return "stream" }

func (StreamSurface) clientFuncs(e *emitter, clientType string, stubs []*presc.Stub) {
	for _, s := range stubs {
		if s.Stream {
			e.streamMethod(clientType, s)
		}
	}
}

// chunkDecl renders the chunk parameter declaration of a stream stub's
// Send method (aggregates by pointer, mirroring the marshal function's
// parameter shape) and the chunk's type.
func chunkDecl(s *presc.Stub) (decl, ctype string) {
	ct := paramCType(s.Result, s.Result.Reply)
	if isAggregate(s.Result.Reply) {
		return "v *" + ct, ct
	}
	return "v " + ct, ct
}

func (e *emitter) streamMethod(clientType string, s *presc.Stub) {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	streamType := prefix + "Stream"
	goOp := pgen.GoName(s.Op)
	params := append(inParamDecls(s), "window int")
	_, chunkType := chunkDecl(s)

	e.pf(`// %[1]sStream begins the %[2]s server-push stream with a credit
// window of the given number of chunks. A window of 0 blocks the
// server's first Send until Grant extends credit (pure
// backpressure).
func (c *%[3]s) %[1]sStream(%[4]s) (*%[5]s, error) {
st, err := c.C.CallStream(%[6]d, %[7]q, window, %[8]s)
if err != nil {
return nil, err
}
return &%[5]s{st: st}, nil
}

// %[5]s is the receiving half of a %[2]s stream. It is not
// safe for concurrent Recv.
type %[5]s struct {
st *rt.ClientStream
}

// Recv returns the next chunk; io.EOF reports a clean end of
// stream, any other error a classified teardown.
func (s *%[5]s) Recv() (ret %[9]s, err error) {`, goOp, s.Op, clientType, strings.Join(params, ", "), streamType,
		s.OpCode, s.OpName, e.requestFn(s), chunkType)
	e.replyTail("s.st.Recv()", "ret, err", "Unmarshal"+prefix+"Chunk")
	e.pf(`// Grant extends the server's credit window by n chunks.
func (s *%[1]s) Grant(n int) error { return s.st.Grant(n) }

// Cancel tears the stream down and releases any undelivered
// chunks; Recv afterwards reports the cancellation.
func (s *%[1]s) Cancel() { s.st.Cancel() }
`, streamType)
}

// serverStreamType emits the sending half handed to a stream
// operation's work function: a typed wrapper over rt.StreamSender that
// marshals each chunk with the shared MIR-generated code.
func (e *emitter) serverStreamType(s *presc.Stub) {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	decl, _ := chunkDecl(s)
	e.pf(`// %[1]sServerStream is the sending half of a %[2]s stream, handed to
// the work function by the dispatcher.
type %[1]sServerStream struct {
st *rt.StreamSender
}

// Send pushes one chunk, blocking while the client's credit
// window is exhausted (backpressure) and failing once the stream
// is canceled or torn down.
func (s *%[1]sServerStream) Send(%[3]s) error {
return s.st.Send(func(e *rt.Encoder) {
Marshal%[1]sChunk(e, v)
})
}
`, prefix, s.Op, decl)
}

// serverIfaceLine renders one operation's line in the server
// implementation interface. Non-stream operations use the presentation
// signature (CDecl); stream operations replace the reply with the
// typed sending half.
func serverIfaceLine(s *presc.Stub, suffix string) string {
	if !s.Stream {
		return s.CDecl.(string)
	}
	prefix := stubPrefix(s) + suffix
	params := append(inParamDecls(s), "st *"+prefix+"ServerStream")
	return fmt.Sprintf("%s(%s) error", pgen.GoName(s.Op), strings.Join(params, ", "))
}
