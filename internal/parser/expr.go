package parser

import (
	"fmt"

	"pdce/internal/ir"
)

// tokens is the cursor both parsers read: the lexer and one token of
// lookahead. The stream stops at end of input or at a lexical error.
// No grammar rule accepts an error token, so the first error in the
// source, lexical or syntactic, is the one reported.
type tokens struct {
	lx  lexer
	tok Token // the next token
}

func newTokens(src string) *tokens {
	t := &tokens{lx: lexer{src: src, line: 1, col: 1}}
	t.tok = t.lx.scan()
	return t
}

func (t *tokens) peek() Token { return t.tok }

func (t *tokens) next() Token {
	tok := t.tok
	if tok.Kind != TokEOF && tok.Kind != TokError {
		t.tok = t.lx.scan()
	}
	return tok
}

// errf returns a syntax error at tok, or tok's own error if it is an
// error token.
func (t *tokens) errf(tok Token, format string, args ...any) error {
	if tok.Kind == TokError {
		return &Error{Line: tok.Line, Col: tok.Col, Msg: tok.Text}
	}
	return &Error{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf(format, args...)}
}

func (t *tokens) expect(k TokKind) (Token, error) {
	tok := t.next()
	if tok.Kind != k {
		return tok, t.errf(tok, "expected %s, found %s %q", k, tok.Kind, tok.Text)
	}
	return tok, nil
}

// skipSemis consumes any separator tokens.
func (t *tokens) skipSemis() {
	for t.peek().Kind == TokSemi {
		t.next()
	}
}

// accept consumes the next token if it has kind k.
func (t *tokens) accept(k TokKind) bool {
	if t.peek().Kind == k {
		t.next()
		return true
	}
	return false
}

// Expression grammar (lowest to highest precedence):
//
//	expr    = additive [ relop additive ]      relop: == != < <= > >=
//	additive = multiplicative { (+|-) multiplicative }
//	multiplicative = unary { (*|/|%) unary }
//	unary   = [-] primary
//	primary = INT | IDENT | '(' expr ')'
//
// Exactly one relational operator is permitted per expression — there
// is no boolean algebra in the paper's term language.
func (t *tokens) parseExpr() (ir.Expr, error) {
	left, err := t.parseAdditive()
	if err != nil {
		return nil, err
	}
	if tok := t.peek(); tok.Kind == TokOp && isRelOp(tok.Text) {
		t.next()
		right, err := t.parseAdditive()
		if err != nil {
			return nil, err
		}
		return ir.Bin(ir.Op(tok.Text), left, right), nil
	}
	return left, nil
}

func isRelOp(s string) bool {
	switch s {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (t *tokens) parseAdditive() (ir.Expr, error) {
	left, err := t.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		tok := t.peek()
		if tok.Kind != TokOp || (tok.Text != "+" && tok.Text != "-") {
			return left, nil
		}
		t.next()
		right, err := t.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = ir.Bin(ir.Op(tok.Text), left, right)
	}
}

func (t *tokens) parseMultiplicative() (ir.Expr, error) {
	left, err := t.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		tok := t.peek()
		var op ir.Op
		switch {
		case tok.Kind == TokStar:
			op = ir.OpMul
		case tok.Kind == TokOp && (tok.Text == "/" || tok.Text == "%"):
			op = ir.Op(tok.Text)
		default:
			return left, nil
		}
		t.next()
		right, err := t.parseUnary()
		if err != nil {
			return nil, err
		}
		left = ir.Bin(op, left, right)
	}
}

func (t *tokens) parseUnary() (ir.Expr, error) {
	if tok := t.peek(); tok.Kind == TokOp && tok.Text == "-" {
		t.next()
		x, err := t.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold a negated literal into a constant so "-1" round-trips.
		if c, ok := x.(ir.Const); ok {
			return ir.C(-c.Value), nil
		}
		return ir.Unary{Op: ir.OpNeg, X: x}, nil
	}
	return t.parsePrimary()
}

func (t *tokens) parsePrimary() (ir.Expr, error) {
	tok := t.next()
	switch tok.Kind {
	case TokInt:
		return ir.C(tok.Int), nil
	case TokIdent:
		return ir.V(ir.Var(tok.Text)), nil
	case TokLParen:
		e, err := t.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := t.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, t.errf(tok, "expected expression, found %s %q", tok.Kind, tok.Text)
}

// ParseExpr parses a standalone expression (used by tests and tools).
func ParseExpr(src string) (ir.Expr, error) {
	t := newTokens(src)
	t.skipSemis()
	e, err := t.parseExpr()
	if err != nil {
		return nil, err
	}
	t.skipSemis()
	if tok := t.peek(); tok.Kind != TokEOF {
		return nil, t.errf(tok, "unexpected trailing %s %q", tok.Kind, tok.Text)
	}
	return e, nil
}

// parseSimpleStmt parses one of the paper's statement forms:
//
//	x := expr
//	out(expr)
//	branch(expr)
//	skip
func (t *tokens) parseSimpleStmt() (ir.Stmt, error) {
	tok := t.next()
	if tok.Kind != TokIdent {
		return nil, t.errf(tok, "expected statement, found %s %q", tok.Kind, tok.Text)
	}
	switch tok.Text {
	case "skip":
		return ir.Skip{}, nil
	case "out", "branch":
		if _, err := t.expect(TokLParen); err != nil {
			return nil, err
		}
		e, err := t.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := t.expect(TokRParen); err != nil {
			return nil, err
		}
		if tok.Text == "out" {
			return ir.Out{Arg: e}, nil
		}
		return ir.Branch{Cond: e}, nil
	default:
		if _, err := t.expect(TokAssign); err != nil {
			return nil, err
		}
		e, err := t.parseExpr()
		if err != nil {
			return nil, err
		}
		return ir.Assign{LHS: ir.Var(tok.Text), RHS: e}, nil
	}
}
