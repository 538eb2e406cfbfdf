// Package ir defines the intermediate representation of the paper
// "Partial Dead Code Elimination" (Knoop, Rüthing, Steffen; PLDI 1994):
// variables, right-hand-side terms, and the three statement forms the
// paper works with — assignments x := t, the empty statement skip, and
// relevant statements (out(t) and branch conditions) that force their
// operands to stay alive.
package ir

import (
	"fmt"
	"strconv"
)

// Var is a program variable. Variables are compared by name.
type Var string

// Op is a binary or unary operator occurring in terms.
type Op string

// Operators understood by the term language. The set is deliberately
// small: the paper's analyses only inspect the variables occurring in a
// term, never its arithmetic meaning, but the interpreter in
// internal/interp gives these operators their usual semantics.
const (
	OpAdd Op = "+"
	OpSub Op = "-"
	OpMul Op = "*"
	OpDiv Op = "/"
	OpMod Op = "%"
	OpNeg Op = "neg" // unary minus

	// Relational operators, used in branch conditions.
	OpEq Op = "=="
	OpNe Op = "!="
	OpLt Op = "<"
	OpLe Op = "<="
	OpGt Op = ">"
	OpGe Op = ">="
)

// Expr is a term t of the paper: a side-effect-free expression over
// variables and integer constants. Implementations are immutable;
// sharing sub-expressions between statements is safe.
type Expr interface {
	// Key returns a canonical, parseable rendering of the
	// expression. Two expressions denote the same term if and only
	// if their keys are equal; assignment-pattern identity
	// (Section 2 of the paper) is defined through Key.
	Key() string

	fmt.Stringer
	isExpr()
}

// Const is an integer literal.
type Const struct {
	Value int64
}

// VarRef is a use of a variable.
type VarRef struct {
	Name Var
}

// Unary applies a unary operator (currently only OpNeg) to an operand.
type Unary struct {
	Op Op
	X  Expr
}

// Binary applies a binary operator to two operands.
type Binary struct {
	Op   Op
	L, R Expr
}

func (Const) isExpr()  {}
func (VarRef) isExpr() {}
func (Unary) isExpr()  {}
func (Binary) isExpr() {}

func (c Const) Key() string  { return strconv.FormatInt(c.Value, 10) }
func (v VarRef) Key() string { return string(v.Name) }
func (u Unary) Key() string  { return string(AppendKey(nil, u)) }
func (b Binary) Key() string { return string(AppendKey(nil, b)) }

// AppendKey appends e's Key rendering to dst and returns the extended
// slice. The pattern table renders its lookup keys with it into a
// reused buffer, so a lookup allocates nothing.
func AppendKey(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case Const:
		return strconv.AppendInt(dst, x.Value, 10)
	case VarRef:
		return append(dst, x.Name...)
	case Unary:
		return append(AppendKey(append(dst, "(-"...), x.X), ')')
	case Binary:
		dst = AppendKey(append(dst, '('), x.L)
		return append(AppendKey(append(dst, x.Op...), x.R), ')')
	}
	panic(fmt.Sprintf("ir: cannot render expression %#v", e))
}

func (c Const) String() string  { return c.Key() }
func (v VarRef) String() string { return v.Key() }
func (u Unary) String() string  { return string(AppendExpr(nil, u)) }
func (b Binary) String() string { return string(AppendExpr(nil, b)) }

// AppendExpr appends e's String rendering to dst and returns the
// extended slice.
func AppendExpr(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case Const:
		return strconv.AppendInt(dst, x.Value, 10)
	case VarRef:
		return append(dst, x.Name...)
	case Unary:
		return appendOperand(append(dst, '-'), x.X)
	case Binary:
		dst = appendOperand(dst, x.L)
		return appendOperand(append(dst, x.Op...), x.R)
	}
	panic(fmt.Sprintf("ir: cannot render expression %#v", e))
}

// appendOperand renders an operand, wrapping compound operands in
// parentheses so that the output re-parses to the same tree.
func appendOperand(dst []byte, e Expr) []byte {
	if IsTrivial(e) {
		return AppendExpr(dst, e)
	}
	return append(AppendExpr(append(dst, '('), e), ')')
}

// C returns a constant expression.
func C(v int64) Expr { return Const{Value: v} }

// V returns a variable reference.
func V(name Var) Expr { return VarRef{Name: name} }

// Bin returns a binary expression.
func Bin(op Op, l, r Expr) Expr { return Binary{Op: op, L: l, R: r} }

// Add returns l + r.
func Add(l, r Expr) Expr { return Bin(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Bin(OpSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return Bin(OpMul, l, r) }

// Walk calls f for e and every sub-expression of e, parents first.
func Walk(e Expr, f func(Expr)) {
	f(e)
	switch x := e.(type) {
	case Unary:
		Walk(x.X, f)
	case Binary:
		Walk(x.L, f)
		Walk(x.R, f)
	}
}

// ExprVars calls f once per occurrence of a variable in e, in
// left-to-right order. It recurses directly rather than through Walk:
// wrapping f in a fresh adapter closure allocated on every call showed
// up in the optimizer's allocation profile.
func ExprVars(e Expr, f func(Var)) {
	switch x := e.(type) {
	case VarRef:
		f(x.Name)
	case Unary:
		ExprVars(x.X, f)
	case Binary:
		ExprVars(x.L, f)
		ExprVars(x.R, f)
	}
}

// VarsOf returns the set of variables occurring in e.
func VarsOf(e Expr) map[Var]bool {
	m := make(map[Var]bool)
	ExprVars(e, func(v Var) { m[v] = true })
	return m
}

// UsesVar reports whether variable v occurs in e.
func UsesVar(e Expr, v Var) bool {
	found := false
	ExprVars(e, func(w Var) {
		if w == v {
			found = true
		}
	})
	return found
}

// ExprEqual reports whether a and b denote the same term.
func ExprEqual(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Key() == b.Key()
}

// SubExprs returns e and all of its sub-expressions, parents first.
func SubExprs(e Expr) []Expr {
	var out []Expr
	Walk(e, func(sub Expr) { out = append(out, sub) })
	return out
}

// IsTrivial reports whether e is a constant or a bare variable — a term
// whose "computation" is free. Lazy code motion (internal/lcm) skips
// such terms as motion candidates.
func IsTrivial(e Expr) bool {
	switch e.(type) {
	case Const, VarRef:
		return true
	}
	return false
}

// SubstVars returns e with every occurrence of a variable in subst
// replaced by its image. Unmapped variables are untouched; the input
// expression is never modified (expressions are immutable).
func SubstVars(e Expr, subst map[Var]Var) Expr {
	switch x := e.(type) {
	case Const:
		return x
	case VarRef:
		if to, ok := subst[x.Name]; ok {
			return VarRef{Name: to}
		}
		return x
	case Unary:
		return Unary{Op: x.Op, X: SubstVars(x.X, subst)}
	case Binary:
		return Binary{Op: x.Op, L: SubstVars(x.L, subst), R: SubstVars(x.R, subst)}
	}
	return e
}
