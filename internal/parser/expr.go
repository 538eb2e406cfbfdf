package parser

import (
	"fmt"

	"pdce/internal/ir"
)

// errf returns a syntax error at tok, or tok's own error if it is an
// error token.
func (t *tokens) errf(tok Token, format string, args ...any) error {
	if tok.Kind == TokError {
		return errorAt(t.src, tok.Pos, tok.Text)
	}
	return errorAt(t.src, tok.Pos, fmt.Sprintf(format, args...))
}

// expect consumes the next token, which must have kind k.
func (t *tokens) expect(k TokKind) error {
	if t.tok.Kind != k {
		return t.errf(t.tok, "expected %s, found %s %q", k, t.tok.Kind, t.tok.Text)
	}
	t.next()
	return nil
}

// skipSemis consumes any separator tokens.
func (t *tokens) skipSemis() {
	for t.tok.Kind == TokSemi {
		t.next()
	}
}

// accept consumes the next token if it has kind k.
func (t *tokens) accept(k TokKind) bool {
	if t.tok.Kind == k {
		t.next()
		return true
	}
	return false
}

// isKeyword reports whether the next token is the identifier kw.
func (t *tokens) isKeyword(kw string) bool {
	return t.tok.Kind == TokIdent && t.tok.Text == kw
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
	if t.tok.Kind == TokOp && isRelOp(t.tok.Text) {
		op := ir.Op(t.tok.Text)
		t.next()
		right, err := t.parseAdditive()
		if err != nil {
			return nil, err
		}
		return ir.Bin(op, left, right), nil
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
	for t.tok.Kind == TokOp && (t.tok.Text == "+" || t.tok.Text == "-") {
		op := ir.Op(t.tok.Text)
		t.next()
		right, err := t.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = ir.Bin(op, left, right)
	}
	return left, nil
}

func (t *tokens) parseMultiplicative() (ir.Expr, error) {
	left, err := t.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ir.Op
		switch {
		case t.tok.Kind == TokStar:
			op = ir.OpMul
		case t.tok.Kind == TokOp && (t.tok.Text == "/" || t.tok.Text == "%"):
			op = ir.Op(t.tok.Text)
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
	if t.tok.Kind == TokOp && t.tok.Text == "-" {
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
	switch t.tok.Kind {
	case TokInt:
		e := ir.C(t.tok.Int)
		t.next()
		return e, nil
	case TokIdent:
		e := t.varRef(t.tok.Text)
		t.next()
		return e, nil
	case TokLParen:
		t.next()
		e, err := t.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := t.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, t.errf(t.tok, "expected expression, found %s %q", t.tok.Kind, t.tok.Text)
}

// varRef returns the parse's one boxed reference to variable name.
func (t *tokens) varRef(name string) ir.Expr {
	e, ok := t.vars[name]
	if !ok {
		if t.vars == nil {
			t.vars = make(map[string]ir.Expr)
		}
		e = ir.V(ir.Var(name))
		t.vars[name] = e
	}
	return e
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
	if t.tok.Kind != TokEOF {
		return nil, t.errf(t.tok, "unexpected trailing %s %q", t.tok.Kind, t.tok.Text)
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
	if t.tok.Kind != TokIdent {
		return nil, t.errf(t.tok, "expected statement, found %s %q", t.tok.Kind, t.tok.Text)
	}
	name := t.tok.Text
	t.next()
	switch name {
	case "skip":
		return ir.Skip{}, nil
	case "out", "branch":
		if err := t.expect(TokLParen); err != nil {
			return nil, err
		}
		e, err := t.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := t.expect(TokRParen); err != nil {
			return nil, err
		}
		if name == "out" {
			return ir.Out{Arg: e}, nil
		}
		return ir.Branch{Cond: e}, nil
	default:
		if err := t.expect(TokAssign); err != nil {
			return nil, err
		}
		e, err := t.parseExpr()
		if err != nil {
			return nil, err
		}
		return ir.Assign{LHS: ir.Var(name), RHS: e}, nil
	}
}
