package mir

import (
	"fmt"

	"flick/internal/wire"
)

// The alias/lifetime pass: the analysis that licenses the zero-copy
// fast path. The chunk analysis already proves which regions are
// fixed-layout; this pass proves, per transfer region, whether it is
// safe to *alias* the presented storage on the wire instead of copying
// it through the marshal buffer — and records the proof on the op so
// the emitter can only ever take the fast path for a region the prover
// signed off on (and so the zerocopy verifier can independently
// re-derive and cross-check the claim at the stage boundary).
//
// A region is alias-safe only when all three obligations hold:
//
//   - Byte identity: the wire encoding of the region is bit-for-bit
//     the presented memory (1-byte elements, no bool repacking, no
//     endian or width conversion). Aliasing then produces exactly the
//     bytes a copy would have.
//   - No mutation between marshal and send: once the alias is formed,
//     nothing writes the presented storage before the transport
//     finishes the send. Marshal programs never write presented
//     memory, and the runtime completes vectored sends before Send
//     returns, so the window is the marshal program itself.
//   - Alignment compatibility: the region must not require the wire
//     cursor to be aligned beyond what an appended segment provides.
//     Byte-wide regions require alignment 1, which always holds.
//
// Everything else — chunk windows (assembled in the encoder: length
// prefixes, endian conversion), strings (aliasing immutable string
// bytes needs unsafe), bool arrays (repacked), multi-byte elements
// (conversion) — is classified copy-required with the refusal reason
// recorded.

// AliasClass classifies one transfer region for the zero-copy path.
// The zero value is CopyRequired: an absent or default proof never
// licenses aliasing.
type AliasClass int

const (
	// CopyRequired regions go through the marshal buffer.
	CopyRequired AliasClass = iota
	// AliasSafe regions may be sent as segments referencing the
	// presented storage in place.
	AliasSafe
)

func (c AliasClass) String() string {
	switch c {
	case CopyRequired:
		return "copy-required"
	case AliasSafe:
		return "alias-safe"
	}
	return fmt.Sprintf("AliasClass(%d)", int(c))
}

// AliasProof is the recorded outcome of the alias pass for one region:
// the classification plus the placement and obligation facts it rests
// on. The zerocopy verifier re-derives each field from the op and the
// format and rejects any proof that disagrees — a corrupted proof
// (wrong offset, impossible alignment, admitted mutation) is a compile
// error, not a silent wrong fast path.
type AliasProof struct {
	Class AliasClass
	// Off is the static payload offset at which the region begins, or
	// -1 when dynamic data precedes it and only the lowerer's
	// alignment guarantee remains.
	Off int
	// Align is the alignment the region requires of its wire position
	// (1 for byte-wide regions: any position works).
	Align int
	// ByteIdentical records the byte-identity obligation: wire bytes
	// == presented bytes, so an alias is indistinguishable from a
	// copy.
	ByteIdentical bool
	// NoMutation records the lifetime obligation: no write to the
	// presented storage between forming the alias and the completion
	// of the send.
	NoMutation bool
	// Reason is the human-readable proof summary (alias-safe) or
	// refusal reason (copy-required), surfaced in diagnostics.
	Reason string
}

// aliasPass classifies every Bulk and Chunk region of the program and
// attaches the proofs. It is an annotation pass: it never rewrites
// ops, so it runs for every style (the baselines simply have no bulk
// regions to classify). It replays the same placement cursor the
// lowerer used so each proof records where its region starts.
func aliasPass(prog *Program, f wire.Format, st *Stats) {
	a := &aliaser{dir: prog.Dir, f: f, st: st}
	a.walk(prog.Ops, &cursor{known: true, off: 0, guar: f.MaxAlign()})
	for _, s := range prog.Subs {
		// Subprograms run at an unknown buffer position.
		a.walk(s.Ops, &cursor{known: false, guar: 1})
	}
}

type aliaser struct {
	dir Dir
	f   wire.Format
	st  *Stats
}

// Placement replay over the lowerer's cursor: while the offset is
// statically known we track it exactly; any data-dependent region
// degrades to unknown (reset), matching what the lowerer itself can
// prove.

func (c *cursor) advance(n int) {
	if c.known {
		c.off += n
	}
}

func (c *cursor) align(n int) {
	if n > 1 && c.known {
		c.off += (n - c.off%n) % n
	}
}

func (a *aliaser) walk(ops []Op, cur *cursor) {
	for _, op := range ops {
		switch op := op.(type) {
		case *Align:
			cur.align(op.N)
		case *Ensure, *EnsureDyn:
			// Space checks do not move the cursor.
		case *Item:
			cur.advance(op.Wire)
		case *ConstItem:
			cur.advance(op.Wire)
		case *LenItem:
			cur.advance(op.Wire)
		case *Chunk:
			op.Alias = a.proveChunk(cur)
			a.count(op.Alias)
			cur.advance(op.Size)
		case *Bulk:
			op.Alias = a.proveBulk(op, cur)
			a.count(op.Alias)
			a.advanceBulk(op, cur)
		case *Loop, *Opt, *Switch:
			// Placement inside a body is relative to where the iteration
			// or the arm happens to start, and unknown after it.
			Bodies(op, func(body *[]Op) { a.walk(*body, &cursor{known: false, guar: 1}) })
			cur.reset()
		case *CallSub:
			cur.reset()
		}
	}
}

func (a *aliaser) advanceBulk(op *Bulk, cur *cursor) {
	if op.Count >= 0 {
		n := op.Count * op.ElemWire
		if op.Nul {
			n += op.ElemWire
		}
		cur.advance(n)
		return
	}
	cur.reset()
}

func (a *aliaser) count(p *AliasProof) {
	if a.st == nil {
		return
	}
	if p.Class == AliasSafe {
		a.st.AliasSafe++
	} else {
		a.st.AliasCopy++
	}
}

func off(cur *cursor) int {
	if cur.known {
		return cur.off
	}
	return -1
}

// proveChunk classifies a fixed-layout chunk. Chunks are always
// copy-required: their atoms are assembled in the marshal buffer
// (length prefixes computed at marshal time, endian conversion through
// binary.* puts), so there is no presented storage whose bytes equal
// the window.
func (a *aliaser) proveChunk(cur *cursor) *AliasProof {
	return &AliasProof{
		Class:  CopyRequired,
		Off:    off(cur),
		Align:  1,
		Reason: "chunk atoms are assembled in the marshal buffer (length prefixes, endian conversion)",
	}
}

// proveBulk classifies a bulk (memcpy-converted) transfer.
func (a *aliaser) proveBulk(op *Bulk, cur *cursor) *AliasProof {
	p := &AliasProof{Off: off(cur), Align: 1}
	refuse := func(reason string) *AliasProof {
		p.Class = CopyRequired
		p.Reason = reason
		return p
	}
	if BulkIsString(op) {
		// Go string bytes are immutable — the safest storage there is
		// — but forming a []byte view of them requires unsafe, which
		// this runtime does not use. On decode the string conversion
		// copies by construction.
		return refuse("string presentation: aliasing string bytes requires unsafe")
	}
	if op.Atom.Kind == wire.BoolAtom {
		return refuse("bool elements are repacked between memory and wire")
	}
	if op.ElemWire != 1 {
		return refuse(fmt.Sprintf("%d-byte wire elements may need endian/width conversion", op.ElemWire))
	}
	if op.Nul {
		return refuse("NUL-terminated region: the terminator is not presented storage")
	}
	if a.dir == Unmarshal && op.Count >= 0 {
		// Fixed arrays decode into caller-owned array storage; there
		// is no slice header to retarget at the arena.
		return refuse("fixed-array storage is caller-owned on decode")
	}
	// Byte identity holds: 1-byte non-bool elements, flat layout.
	p.ByteIdentical = true
	// No mutation: a marshal program only reads presented storage and
	// the runtime completes the send before returning; on decode the
	// obligation is the arena borrow (pin-on-alias Release), enforced
	// by the arenalife analyzer for direct users.
	p.NoMutation = true
	p.Class = AliasSafe
	if a.dir == Marshal {
		p.Reason = "byte-identical region sent in place before any mutation window opens"
	} else {
		p.Reason = "byte-identical region decoded as an arena-borrowed view"
	}
	return p
}

// BulkIsString reports whether the bulk transfers a string
// presentation (shared between the prover and the verifier's
// re-derivation so both look at the same evidence).
func BulkIsString(op *Bulk) bool {
	if op.OverPres == nil {
		return false
	}
	s, ok := op.OverPres.Resolve().CType.(string)
	return ok && s == "string"
}
