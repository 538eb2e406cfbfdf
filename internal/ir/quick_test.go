package ir

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randExpr implements testing/quick.Generator, producing arbitrary
// expression trees over a small variable pool.
type randExpr struct{ E Expr }

// Generate implements quick.Generator.
func (randExpr) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(randExpr{E: genExpr(r, 4)})
}

func genExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return C(int64(r.Intn(200) - 100))
		}
		vars := []Var{"a", "b", "c", "x", "y"}
		return V(vars[r.Intn(len(vars))])
	}
	if r.Intn(6) == 0 {
		// Negation of a bare constant is not parser-producible
		// (the grammar folds it into the literal), so negate
		// non-constant operands only.
		x := genExpr(r, depth-1)
		if _, isConst := x.(Const); !isConst {
			return Unary{Op: OpNeg, X: x}
		}
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLt, OpLe, OpEq, OpNe, OpGt, OpGe}
	return Bin(ops[r.Intn(len(ops))], genExpr(r, depth-1), genExpr(r, depth-1))
}

// TestQuickKeyIdentifiesTerm: equal keys mean structurally equal trees
// (Key is injective on expression structure).
func TestQuickKeyIdentifiesTerm(t *testing.T) {
	f := func(a, b randExpr) bool {
		if a.E.Key() == b.E.Key() {
			return reflect.DeepEqual(a.E, b.E)
		}
		return !reflect.DeepEqual(a.E, b.E)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubstIdentity: the empty substitution is the identity.
func TestQuickSubstIdentity(t *testing.T) {
	f := func(a randExpr) bool {
		return ExprEqual(SubstVars(a.E, nil), a.E) &&
			ExprEqual(SubstVars(a.E, map[Var]Var{}), a.E)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSubstRemovesVariable: after substituting v -> w (v != w),
// v no longer occurs.
func TestQuickSubstRemovesVariable(t *testing.T) {
	f := func(a randExpr) bool {
		subst := map[Var]Var{"a": "z9"}
		out := SubstVars(a.E, subst)
		return !UsesVar(out, "a")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSubstPreservesShape: substitution never changes the
// expression skeleton (number of sub-expressions).
func TestQuickSubstPreservesShape(t *testing.T) {
	f := func(a randExpr) bool {
		out := SubstVars(a.E, map[Var]Var{"a": "b", "b": "c"})
		return len(SubExprs(out)) == len(SubExprs(a.E))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickEvalRespectsSubstitution: evaluating e with x := env[y]
// renamed equals evaluating SubstVars(e, x->y) in the original env —
// the substitution lemma, restricted to non-faulting cases.
func TestQuickEvalRespectsSubstitution(t *testing.T) {
	f := func(a randExpr, av, bv int64) bool {
		env := EnvMap{"a": av, "b": bv, "c": 3, "x": 4, "y": 5}
		// rename a -> c everywhere; evaluate original with a set
		// to env[c].
		renamed := SubstVars(a.E, map[Var]Var{"a": "c"})
		env2 := EnvMap{"a": env["c"], "b": bv, "c": 3, "x": 4, "y": 5}
		v1, err1 := Eval(renamed, env)
		v2, err2 := Eval(a.E, env2)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return err1 != nil || v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickEvalDeterministic: same env, same value.
func TestQuickEvalDeterministic(t *testing.T) {
	f := func(a randExpr, av int64) bool {
		env := EnvMap{"a": av, "b": 2, "c": 3, "x": 4, "y": 5}
		v1, err1 := Eval(a.E, env)
		v2, err2 := Eval(a.E, env)
		return (err1 == nil) == (err2 == nil) && (err1 != nil || v1 == v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCanFaultSound: if CanFault is false, Eval never errors.
func TestQuickCanFaultSound(t *testing.T) {
	f := func(a randExpr, av, bv int64) bool {
		if CanFault(a.E) {
			return true // nothing claimed
		}
		_, err := Eval(a.E, EnvMap{"a": av, "b": bv})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickPatternBlockSymmetric: for two assignments α, β with
// disjoint variables, neither blocks the other.
func TestQuickPatternBlockSymmetric(t *testing.T) {
	alpha := Assign{LHS: "p", RHS: Add(V("q"), V("r"))}
	beta := Assign{LHS: "u", RHS: Add(V("v"), V("w"))}
	pa, _ := PatternOf(alpha)
	pb, _ := PatternOf(beta)
	if pa.Blocks(beta, VarsOf(alpha.RHS)) || pb.Blocks(alpha, VarsOf(beta.RHS)) {
		t.Error("variable-disjoint assignments block each other")
	}
}
