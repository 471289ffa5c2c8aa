// Package presc defines PRES-C (and its Go sibling): the complete
// description of an interface presentation handed from a presentation
// generator to a back end. A presc.File bundles, for one side (client or
// server), the target-language declarations, and for every stub the MINT
// message types plus the PRES trees connecting message data to the stub's
// parameters.
//
// A PRES-C file describes everything a client or server must know to use
// the stubs — everything except the message format, data encoding, and
// transport, which remain the back end's domain.
package presc

import (
	"fmt"

	"flick/internal/mint"
	"flick/internal/pres"
)

// Side selects the client or server presentation of an interface.
type Side int

const (
	Client Side = iota
	Server
)

func (s Side) String() string {
	if s == Client {
		return "client"
	}
	return "server"
}

// StubKind classifies generated functions.
type StubKind int

const (
	// ClientCall marshals a request, sends it, and unmarshals the reply.
	ClientCall StubKind = iota
	// ServerDispatch demultiplexes incoming requests and invokes work
	// functions.
	ServerDispatch
	// ServerWork is the prototype of the user-implemented work function.
	ServerWork
	// SendOnly marshals and sends with no reply (oneway operations and
	// MIG simpleroutines).
	SendOnly
)

func (k StubKind) String() string {
	switch k {
	case ClientCall:
		return "client_call"
	case ServerDispatch:
		return "server_dispatch"
	case ServerWork:
		return "server_work"
	case SendOnly:
		return "send_only"
	}
	return fmt.Sprintf("StubKind(%d)", int(k))
}

// ParamRole says how one presented parameter participates in messages.
type ParamRole int

const (
	// RoleRequest parameters travel in the request (in, inout).
	RoleRequest ParamRole = iota
	// RoleReply parameters travel in the reply (out, inout, result).
	RoleReply
	// RoleBoth marks inout parameters.
	RoleBoth
	// RoleObject is the target object reference (not marshaled by value).
	RoleObject
	// RoleEnv is an environment/status out-parameter (CORBA_Environment).
	RoleEnv
)

// ParamPres connects one presented parameter to the message.
type ParamPres struct {
	// Name is the parameter name in the stub signature.
	Name string
	// CType is the parameter's presented type (cast.Type or Go spelling).
	CType any
	// Role places the parameter in request, reply, or both.
	Role ParamRole
	// Request and Reply are the PRES trees connecting this parameter to
	// the request and reply MINT slots (nil when not applicable).
	Request *pres.Node
	Reply   *pres.Node
}

// Stub is one generated function.
type Stub struct {
	Kind StubKind
	// Name is the generated function name (e.g. "Mail_send" or
	// "mailproc_1").
	Name string
	// Interface and Op identify the AOI origin.
	Interface string
	Op        string
	// OpCode is the wire discriminator for the operation. For CORBA the
	// request also carries OpName (GIOP demultiplexes by name).
	OpCode uint32
	OpName string
	// Prog and Vers carry the ONC program identity (zero for CORBA).
	Prog   uint32
	Vers   uint32
	Oneway bool
	// Idempotent carries the AOI operation's idempotency mark through
	// to the back ends: generated client stubs pass it to the runtime,
	// which only retries idempotent operations after ambiguous
	// failures.
	Idempotent bool
	// Stream carries the AOI operation's server-push streaming mark
	// (//flick:stream): the Result presentation is the chunk type and
	// the back end emits a credit-windowed stream instead of a single
	// reply. Stream stubs are never oneway, carry no reply params, and
	// raise no exceptions.
	Stream bool
	// Borrow carries the AOI operation's //flick:borrow mark: the Go
	// back end decodes the request's in-parameter arrays into storage
	// the runtime lends for the length of the work function.
	Borrow bool
	// CDecl is the stub's target-language declaration (a *cast.FuncDecl
	// for C presentations; a signature string for Go).
	CDecl any
	// Params presents every parameter, in signature order.
	Params []ParamPres
	// Result presents the return value (nil for void).
	Result *ParamPres
	// Request and Reply are the MINT types of this operation's messages
	// (payload only; message-format headers are the back end's
	// business). Reply is nil for oneway operations.
	Request mint.Type
	Reply   mint.Type
	// ExceptionNames lists the user exceptions the reply may carry
	// instead of results, in declaration order; the reply union's
	// non-zero discriminators map to these.
	ExceptionNames []string
	// ExceptionPres holds the PRES tree for each exception body,
	// parallel to ExceptionNames.
	ExceptionPres []*pres.Node
}

// RequestParams returns the params marshaled into the request, in order.
func (s *Stub) RequestParams() []*ParamPres {
	var out []*ParamPres
	for i := range s.Params {
		p := &s.Params[i]
		if p.Role == RoleRequest || p.Role == RoleBoth {
			out = append(out, p)
		}
	}
	return out
}

// ReplyParams returns the params unmarshaled from the reply, in order,
// excluding the result.
func (s *Stub) ReplyParams() []*ParamPres {
	var out []*ParamPres
	for i := range s.Params {
		p := &s.Params[i]
		if p.Role == RoleReply || p.Role == RoleBoth {
			out = append(out, p)
		}
	}
	return out
}

// File is a complete one-sided presentation of one or more interfaces.
type File struct {
	// Name is the presentation name, typically derived from the IDL
	// source file.
	Name string
	Side Side
	// Lang is the target language: "c" or "go".
	Lang string
	// Presentation names the mapping style: "corba", "rpcgen", "fluke",
	// "mig", or "go".
	Presentation string
	// Decls holds the support declarations (type definitions, constants)
	// as target-language declarations ([]cast.Decl for C; source text
	// for Go).
	Decls any
	// Stubs lists every generated function.
	Stubs []*Stub
}

// Validate checks the file's internal consistency.
func Validate(f *File) error {
	if f.Side != Client && f.Side != Server {
		return fmt.Errorf("presc: bad side %d", int(f.Side))
	}
	names := map[string]bool{}
	for _, s := range f.Stubs {
		if s.Name == "" {
			return fmt.Errorf("presc: stub with empty name (op %s)", s.Op)
		}
		if names[s.Name] && s.Kind != ServerWork {
			return fmt.Errorf("presc: duplicate stub name %q", s.Name)
		}
		names[s.Name] = true
		if s.Request == nil {
			return fmt.Errorf("presc: stub %s has nil request type", s.Name)
		}
		if s.Oneway != (s.Reply == nil) {
			return fmt.Errorf("presc: stub %s oneway=%v but reply=%v", s.Name, s.Oneway, s.Reply)
		}
		if s.Stream {
			if s.Oneway {
				return fmt.Errorf("presc: stream stub %s is oneway", s.Name)
			}
			if s.Result == nil || s.Result.Reply == nil {
				return fmt.Errorf("presc: stream stub %s has no result presentation (the chunk type)", s.Name)
			}
			if len(s.ReplyParams()) > 0 {
				return fmt.Errorf("presc: stream stub %s has reply parameters", s.Name)
			}
			if len(s.ExceptionNames) > 0 {
				return fmt.Errorf("presc: stream stub %s declares exceptions", s.Name)
			}
		}
		for i := range s.Params {
			p := &s.Params[i]
			switch p.Role {
			case RoleRequest, RoleBoth:
				if p.Request == nil {
					return fmt.Errorf("presc: stub %s param %s: request role without request pres", s.Name, p.Name)
				}
				if err := pres.Validate(p.Request); err != nil {
					return fmt.Errorf("stub %s param %s: %w", s.Name, p.Name, err)
				}
			}
			switch p.Role {
			case RoleReply, RoleBoth:
				if p.Reply == nil {
					return fmt.Errorf("presc: stub %s param %s: reply role without reply pres", s.Name, p.Name)
				}
				if err := pres.Validate(p.Reply); err != nil {
					return fmt.Errorf("stub %s param %s: %w", s.Name, p.Name, err)
				}
			}
		}
		if s.Result != nil && s.Result.Reply != nil {
			if err := pres.Validate(s.Result.Reply); err != nil {
				return fmt.Errorf("stub %s result: %w", s.Name, err)
			}
		}
	}
	return nil
}
