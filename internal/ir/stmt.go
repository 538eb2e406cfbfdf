package ir

import "fmt"

// Stmt is a program instruction. The paper classifies statements into
// three groups (Section 2): assignment statements v := t, the empty
// statement skip, and relevant statements that force all their operands
// to be alive. We realize relevant statements as Out (explicit output,
// the paper's out(t)) and Branch (a branch condition; the paper's
// footnote 2 requires conditions to be treated as relevant).
type Stmt interface {
	fmt.Stringer
	isStmt()
}

// Assign is the assignment statement LHS := RHS.
type Assign struct {
	LHS Var
	RHS Expr
}

// Skip is the empty statement.
type Skip struct{}

// Out is the relevant statement out(Arg): it observably emits the value
// of Arg and therefore keeps every variable of Arg alive.
type Out struct {
	Arg Expr
}

// Branch is the condition of a two-way branch. It is a relevant
// statement: its operands must stay alive, and no assignment defining
// one of them may sink past it. A Branch may only appear as the last
// statement of a basic block with exactly two successors; the first
// successor is taken when the condition evaluates to a non-zero value.
//
// Blocks without a Branch statement branch nondeterministically, which
// is the paper's base model (Section 2: edges represent "the
// nondeterministic branching structure of G").
type Branch struct {
	Cond Expr
}

func (Assign) isStmt() {}
func (Skip) isStmt()   {}
func (Out) isStmt()    {}
func (Branch) isStmt() {}

func (a Assign) String() string { return string(AppendStmt(nil, a)) }
func (Skip) String() string     { return "skip" }
func (o Out) String() string    { return string(AppendStmt(nil, o)) }
func (b Branch) String() string { return string(AppendStmt(nil, b)) }

// AppendStmt appends s's String rendering to dst and returns the
// extended slice.
func AppendStmt(dst []byte, s Stmt) []byte {
	switch st := s.(type) {
	case Assign:
		dst = append(dst, st.LHS...)
		return AppendExpr(append(dst, " := "...), st.RHS)
	case Skip:
		return append(dst, "skip"...)
	case Out:
		return append(AppendExpr(append(dst, "out("...), st.Arg), ')')
	case Branch:
		return append(AppendExpr(append(dst, "branch("...), st.Cond), ')')
	}
	panic(fmt.Sprintf("ir: cannot render statement %#v", s))
}

// Uses calls f once per right-hand-side occurrence of a variable in s.
// For relevant statements every operand variable is a use; for an
// assignment the uses are the variables of its RHS; skip uses nothing.
func Uses(s Stmt, f func(Var)) {
	switch st := s.(type) {
	case Assign:
		ExprVars(st.RHS, f)
	case Out:
		ExprVars(st.Arg, f)
	case Branch:
		ExprVars(st.Cond, f)
	}
}

// UsesSet returns the set of variables used (read) by s.
func UsesSet(s Stmt) map[Var]bool {
	m := make(map[Var]bool)
	Uses(s, func(v Var) { m[v] = true })
	return m
}

// UsesVarStmt reports whether s reads variable v.
func UsesVarStmt(s Stmt, v Var) bool {
	found := false
	Uses(s, func(w Var) {
		if w == v {
			found = true
		}
	})
	return found
}

// Def returns the variable defined (written) by s, if any. Only
// assignments define a variable.
func Def(s Stmt) (Var, bool) {
	if a, ok := s.(Assign); ok {
		return a.LHS, true
	}
	return "", false
}

// Mods reports whether s modifies variable v. This is the paper's local
// predicate MOD.
func Mods(s Stmt, v Var) bool {
	d, ok := Def(s)
	return ok && d == v
}

// IsRelevant reports whether s is a relevant statement (out or branch):
// one whose operands must be treated as alive. The paper's predicate
// RELV-USED is UsesVarStmt restricted to relevant statements.
func IsRelevant(s Stmt) bool {
	switch s.(type) {
	case Out, Branch:
		return true
	}
	return false
}

// RelvUses reports whether s is a relevant statement that reads v
// (the paper's RELV-USED).
func RelvUses(s Stmt, v Var) bool {
	return IsRelevant(s) && UsesVarStmt(s, v)
}

// AssUses reports whether s is an assignment statement that reads v on
// its right-hand side (the paper's ASS-USED).
func AssUses(s Stmt, v Var) bool {
	_, isAssign := s.(Assign)
	return isAssign && UsesVarStmt(s, v)
}

// StmtEqual reports whether two statements are syntactically identical.
func StmtEqual(a, b Stmt) bool {
	switch x := a.(type) {
	case Assign:
		y, ok := b.(Assign)
		return ok && x.LHS == y.LHS && ExprEqual(x.RHS, y.RHS)
	case Skip:
		_, ok := b.(Skip)
		return ok
	case Out:
		y, ok := b.(Out)
		return ok && ExprEqual(x.Arg, y.Arg)
	case Branch:
		y, ok := b.(Branch)
		return ok && ExprEqual(x.Cond, y.Cond)
	}
	return false
}
