package idllex

// Parser layers one-token lookahead and expectation helpers over a Lexer;
// it is embedded by each front end's recursive-descent parser.
type Parser struct {
	Lex *Lexer
	tok Token
}

// NewParser primes the lookahead.
func NewParser(l *Lexer) (*Parser, error) {
	p := &Parser{Lex: l}
	return p, p.Advance()
}

// Tok returns the current token.
func (p *Parser) Tok() Token { return p.tok }

// Advance consumes the current token.
func (p *Parser) Advance() error {
	tok, err := p.Lex.Next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

// At reports whether the current token is the given punctuation or
// keyword spelling.
func (p *Parser) At(text string) bool {
	return (p.tok.Kind == Punct || p.tok.Kind == Ident) && p.tok.Text == text
}

// AtEOF reports end of input.
func (p *Parser) AtEOF() bool { return p.tok.Kind == EOF }

// Accept consumes the current token if it matches text.
func (p *Parser) Accept(text string) (bool, error) {
	if p.At(text) {
		return true, p.Advance()
	}
	return false, nil
}

// Expect consumes a required punctuation or keyword.
func (p *Parser) Expect(text string) error {
	if !p.At(text) {
		return p.Lex.Errf(p.tok, "expected %q, found %s", text, p.tok)
	}
	return p.Advance()
}

// ExpectAngleClose consumes the '>' that closes a '<' bracket. The
// lexer's longest match turns the two closers of nested brackets
// (sequence<string<20>>) into one ">>" shift token; here, where the
// grammar wants '>', that token is split: its first half is consumed
// and its second half stays current.
func (p *Parser) ExpectAngleClose() error {
	if p.At(">>") {
		p.tok.Text = ">"
		p.tok.Col++
		return nil
	}
	return p.Expect(">")
}

// ExpectIdent consumes a required identifier and returns its spelling.
func (p *Parser) ExpectIdent() (string, error) {
	if p.tok.Kind != Ident {
		return "", p.Lex.Errf(p.tok, "expected identifier, found %s", p.tok)
	}
	name := p.tok.Text
	return name, p.Advance()
}

// ExpectInt consumes a required integer literal.
func (p *Parser) ExpectInt() (int64, error) {
	if p.tok.Kind != Int {
		return 0, p.Lex.Errf(p.tok, "expected integer, found %s", p.tok)
	}
	v := p.tok.Val
	return v, p.Advance()
}

// Pos returns the current token's position as (file, line, col), for
// parsers recording declaration sites.
func (p *Parser) Pos() (file string, line, col int) {
	return p.Lex.File(), p.tok.Line, p.tok.Col
}

// Errf builds a positioned error at the current token.
func (p *Parser) Errf(format string, args ...any) error {
	return p.Lex.Errf(p.tok, format, args...)
}

// Unexpected builds a generic error for the current token.
func (p *Parser) Unexpected(ctx string) error {
	return p.Lex.Errf(p.tok, "unexpected %s in %s", p.tok, ctx)
}
