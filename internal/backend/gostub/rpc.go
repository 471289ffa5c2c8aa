package gostub

import (
	"fmt"
	"strings"

	"flick/internal/backend"
	"flick/internal/mir"
	"flick/internal/pgen"
	"flick/internal/pres"
	"flick/internal/presc"
)

// protoExpr returns the rt.Protocol constructor for the configured wire
// format.
func (e *emitter) protoExpr() string {
	switch e.cfg.Format.Name() {
	case "xdr":
		return "rt.ONC{}"
	case "cdr-be":
		return "rt.GIOP{}"
	case "cdr-le":
		return "rt.GIOP{Little: true}"
	case "mach3":
		return "rt.Mach{}"
	case "fluke":
		return "rt.Fluke{}"
	default:
		return "rt.ONC{}"
	}
}

// rpcFuncs renders the client type with the configured presentation
// surfaces' methods, the server implementation interface, and the
// Register function installing the dispatch loop. Marshal code is
// never rendered here — every surface calls the functions the shared
// MIR walk emitted.
func (e *emitter) rpcFuncs(iface string, stubs []*presc.Stub) {
	base := pgen.GoName(iface) + e.cfg.FuncSuffix
	clientType := base + "Client"
	serverIface := base + "Server"

	// --- Client ---
	if !e.cfg.SurfacesOnly {
		ident := ""
		if len(stubs) > 0 {
			ident = fmt.Sprintf("c.Prog = %d\nc.Vers = %d\n", stubs[0].Prog, stubs[0].Vers)
		}
		e.pf(`// %[1]s invokes %[2]s operations over a connection.
type %[1]s struct {
C *rt.Client
}

// New%[1]s wraps conn with the %[3]s message protocol.
func New%[1]s(conn rt.Conn) *%[1]s {
c := rt.NewClient(conn, %[4]s)
%[5]sreturn &%[1]s{C: c}
}
`, clientType, iface, e.cfg.Format.Name(), e.protoExpr(), ident)
	}

	for _, sf := range e.surfaces() {
		sf.clientFuncs(e, clientType, stubs)
	}
	if e.cfg.SurfacesOnly {
		return
	}

	// --- Server interface ---
	e.pf("// %s is the interface a %s implementation provides.", serverIface, iface)
	e.borrowDoc(stubs)
	e.pf("type %s interface {", serverIface)
	for _, s := range stubs {
		e.p(serverIfaceLine(s, e.cfg.FuncSuffix))
	}
	e.pf("}\n")

	// Sending halves for stream operations (referenced by both the
	// interface above and the dispatch arms below).
	for _, s := range stubs {
		if s.Stream {
			e.serverStreamType(s)
		}
	}

	// --- Dispatch ---
	e.dispatchFunc(base, serverIface, stubs)
}

// argExprs renders the arguments handing roots, held in locals named
// with prefix, to their marshal function (aggregates by address).
func argExprs(prefix string, roots []mir.Root) []string {
	out := []string{"e"}
	for _, r := range roots {
		if isAggregate(r.Pres) {
			out = append(out, "&"+prefix+r.Name)
		} else {
			out = append(out, prefix+r.Name)
		}
	}
	return out
}

func (e *emitter) dispatchFunc(base, serverIface string, stubs []*presc.Stub) {
	prog, vers := uint32(0), uint32(0)
	if len(stubs) > 0 {
		prog, vers = stubs[0].Prog, stubs[0].Vers
	}
	e.pf(`// Register%[1]s installs the %[1]s dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func Register%[1]s(s *rt.Server, impl %[2]s) {
s.Register(%[3]d, %[4]d, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {`, base, serverIface, prog, vers)
	if backend.DemuxByName(e.cfg.Format) {
		e.pf("op := h.OpName")
		e.demux(backend.NewDemux(stubs))
		e.pf("return rt.ErrNoSuchOp")
	} else {
		e.pf("switch h.Proc {")
		for _, s := range stubs {
			e.pf("case %d:", s.OpCode)
			e.dispatchArm(s)
		}
		e.pf("default:\nreturn rt.ErrNoSuchOp\n}")
	}
	e.pf("})\n}\n")
}

// demux renders the kit's operation-name tree as nested switches: on the
// name's length, then on its 4-byte words — the paper's discriminator
// hashing, applied to GIOP's string discriminators.
func (e *emitter) demux(d *backend.Demux) {
	if d.Off < 0 {
		e.pf("switch len(op) {")
	} else {
		e.pf("switch rt.Word4(op, %d) {", d.Off)
	}
	for _, arm := range d.Arms {
		if d.Off < 0 {
			e.pf("case %d:", arm.Key)
		} else {
			e.pf("case 0x%08x: // %q", arm.Key, arm.Text)
		}
		if arm.Stub != nil {
			e.dispatchArm(arm.Stub)
		} else {
			e.demux(arm.Next)
		}
	}
	e.pf("}")
}

// dispatchArm decodes arguments, invokes the implementation, and encodes
// the reply for one operation.
func (e *emitter) dispatchArm(s *presc.Stub) {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	if !backend.DemuxByName(e.cfg.Format) {
		// Numeric-demux protocols (ONC, Mach, Fluke) leave h.OpName
		// empty after header decode; label the request so server
		// metrics and traces report real operation names.
		e.pf("h.OpName = %q", s.OpName)
	}
	if s.Oneway {
		// Some protocols (ONC) cannot flag oneway calls on the wire;
		// the dispatcher knows from the IDL that no reply is due.
		e.pf("h.OneWay = true")
	}
	// inout params appear in both args (inputs) and results.
	var args []string
	for _, p := range s.RequestParams() {
		args = append(args, "a_"+p.Name)
	}
	e.pf("%s := Unmarshal%sRequest(d)\nif argErr != nil {\nreturn argErr\n}",
		strings.Join(append(args, "argErr"), ", "), prefix)

	if s.Stream {
		// Stream operations push chunks over the oneway path: the
		// single auto-reply is suppressed only after arguments decode,
		// so a malformed request still gets a system-error reply.
		e.pf("h.OneWay = true\nsn := rt.NewStreamSender(h)\nworkErr := impl.%s(%s)\nsn.Finish(workErr)", pgen.GoName(s.Op),
			strings.Join(append(args, "&"+prefix+"ServerStream{st: sn}"), ", "))
		e.endBorrow(s)
		e.pf("return nil")
		return
	}

	// Invoke the work function.
	roots := backend.Roots(s, true)
	var results []string
	for _, r := range roots {
		results = append(results, "r_"+r.Name)
	}
	e.pf("%s := impl.%s(%s)\nif workErr != nil {", strings.Join(append(results, "workErr"), ", "), pgen.GoName(s.Op), strings.Join(args, ", "))
	for i, exName := range s.ExceptionNames {
		e.pf("if ex, ok := workErr.(*%s); ok {\nMarshal%sErr%s(e, ex)\nreturn nil\n}",
			ctypeOf(s.ExceptionPres[i]), prefix, strings.ReplaceAll(exName, "_", ""))
	}
	e.pf("return workErr\n}")
	if !s.Oneway {
		e.pf("Marshal%sReply(%s)", prefix, strings.Join(argExprs("r_", roots), ", "))
	}
	e.endBorrow(s)
	e.pf("return nil")
}

// endBorrow emits, in a dispatch arm whose request unmarshal handed out
// arena views, the call that declares them returned: the work function
// is back and whatever the reply takes from its arguments is marshaled
// (by reference at most — the worker sends the reply before it releases
// the request decoder), so the receive buffer may recycle. The error
// exits do not reach it and keep the pin.
func (e *emitter) endBorrow(s *presc.Stub) {
	if len(e.borrowedArgs(s)) > 0 {
		e.pf("d.EndBorrow()")
	}
}

// borrowedArgs returns the request parameters of s that its unmarshal
// function hands out as arena views.
func (e *emitter) borrowedArgs(s *presc.Stub) []string {
	return e.borrowed["Unmarshal"+stubPrefix(s)+e.cfg.FuncSuffix+"Request"]
}

// borrowDoc continues the server interface's doc comment with the
// argument-lifetime rule of every operation whose arguments arrive as
// arena views, one //flick:borrowed directive each (flick-lint's
// arenalife analyzer reads them).
func (e *emitter) borrowDoc(stubs []*presc.Stub) {
	first := true
	for _, s := range stubs {
		names := e.borrowedArgs(s)
		if len(names) == 0 {
			continue
		}
		if first {
			first = false
			e.pf(`//
// The arguments named below alias the request's receive buffer and are
// valid only until the method returns: an implementation that keeps
// the bytes copies them (append([]byte(nil), data...)), and must not
// store the argument itself, send it or hand it to a goroutine.
//`)
		}
		e.pf("//flick:borrowed %s %s", pgen.GoName(s.Op), strings.Join(names, " "))
	}
}

// isAggregate reports the presented kinds the stubs pass by pointer.
func isAggregate(n *pres.Node) bool {
	if n == nil {
		return false
	}
	switch n.Resolve().Kind {
	case pres.StructKind, pres.UnionKind, pres.FixedArrayKind:
		return true
	}
	return false
}
