package pgen

import (
	"flick/internal/aoi"
	"flick/internal/pres"
	"flick/internal/presc"
)

// The language-neutral half of a stub's presentation: what an operation
// is on the wire (kind, codes, flags, MINT request and reply) and how a
// parameter's direction places it in the messages. Every mapping starts
// from this skeleton and adds only what its language decides — names,
// types and the signature.

// newStub returns the skeleton of op's stub under the mapping's name.
func (b *MintBuilder) newStub(it *aoi.Interface, op *aoi.Operation, side presc.Side, name string) *presc.Stub {
	kind := presc.ClientCall
	if side == presc.Server {
		kind = presc.ServerWork
	}
	if op.Oneway && side == presc.Client {
		kind = presc.SendOnly
	}
	stub := &presc.Stub{
		Kind:       kind,
		Name:       name,
		Interface:  it.Name,
		Op:         op.Name,
		OpCode:     op.Code,
		OpName:     op.Name,
		Prog:       it.Program,
		Vers:       it.Version,
		Oneway:     op.Oneway,
		Idempotent: op.Idempotent,
		Stream:     op.Stream,
		Request:    b.BuildRequest(it.Name, op),
	}
	if !op.Oneway {
		stub.Reply = b.BuildReply(it.Name, op, it.Excepts)
		stub.ExceptionNames = op.Raises
	}
	return stub
}

// paramPres presents one parameter: its direction decides the messages
// its PRES tree is connected to.
func paramPres(name string, dir aoi.Direction, ctype any, node *pres.Node) presc.ParamPres {
	pp := presc.ParamPres{Name: name, CType: ctype}
	switch dir {
	case aoi.In:
		pp.Role, pp.Request = presc.RoleRequest, node
	case aoi.Out:
		pp.Role, pp.Reply = presc.RoleReply, node
	case aoi.InOut:
		pp.Role, pp.Request, pp.Reply = presc.RoleBoth, node, node
	}
	return pp
}

// hasResult reports whether op returns a value.
func hasResult(op *aoi.Operation) bool {
	return op.Result != nil && !aoi.IsVoid(op.Result)
}
