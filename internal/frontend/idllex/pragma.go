package idllex

import (
	"fmt"

	"flick/internal/aoi"
)

// Pragma is one //flick: annotation comment captured during lexing.
// Annotations ride in comments so every front-end grammar (CORBA IDL,
// ONC RPC, MIG) gains them without a syntax change, mirroring how
// rpcgen and MIG extensions traditionally travel in comments.
type Pragma struct {
	// Line and Col locate the comment (1-based).
	Line, Col int
	// Text is the directive with the //flick: prefix stripped and
	// whitespace trimmed, e.g. "idempotent".
	Text string
}

// Pragmas returns the //flick: annotations seen so far, in source
// order. Complete only after the parser has consumed every token.
func (l *Lexer) Pragmas() []Pragma { return l.pragmas }

// ApplyFlickPragmas attaches the lexer's captured //flick: annotations
// to the operations of a parsed AOI file. An annotation binds to the
// operation declared on the same line (trailing comment) or on the
// line immediately below (preceding comment):
//
//	//flick:idempotent
//	long lookup(in key k, out entry e);     // preceding form
//	long fetch(in key k);  //flick:idempotent  (trailing form)
//
// Unknown directives and annotations that bind to no operation are
// positioned errors, not silent no-ops: a misspelled or misplaced
// robustness annotation must fail the build, never quietly weaken the
// retry policy.
func ApplyFlickPragmas(l *Lexer, f *aoi.File) error {
	for _, pg := range l.pragmas {
		if pg.Text != "idempotent" && pg.Text != "stream" && pg.Text != "borrow" {
			return &Error{File: l.file, Line: pg.Line, Col: pg.Col,
				Msg: fmt.Sprintf("unknown //flick: directive %q (supported: idempotent, stream, borrow)", pg.Text)}
		}
		op := opAtLine(f, pg.Line)
		if op == nil {
			return &Error{File: l.file, Line: pg.Line, Col: pg.Col,
				Msg: fmt.Sprintf("//flick:%s does not precede or trail an operation declaration", pg.Text)}
		}
		switch pg.Text {
		case "idempotent":
			op.Idempotent = true
		case "stream":
			op.Stream = true
		case "borrow":
			op.Borrow = true
		}
	}
	return nil
}

// opAtLine finds the operation a pragma on the given line annotates:
// one declared on the same line, or the first one declared on the next
// line.
func opAtLine(f *aoi.File, line int) *aoi.Operation {
	for _, it := range f.Interfaces {
		for _, op := range it.Ops {
			if op.Pos.Line == line || op.Pos.Line == line+1 {
				return op
			}
		}
	}
	return nil
}
