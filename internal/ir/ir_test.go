package ir

import (
	"testing"
)

func TestExprStringAndKey(t *testing.T) {
	cases := []struct {
		e   Expr
		str string
		key string
	}{
		{C(42), "42", "42"},
		{C(-3), "-3", "-3"},
		{V("x"), "x", "x"},
		{Add(V("a"), V("b")), "a+b", "(a+b)"},
		{Mul(Add(V("a"), V("b")), C(2)), "(a+b)*2", "((a+b)*2)"},
		{Sub(V("a"), Sub(V("b"), V("c"))), "a-(b-c)", "(a-(b-c))"},
		{Unary{Op: OpNeg, X: V("x")}, "-x", "(-x)"},
		{Bin(OpLt, V("i"), C(10)), "i<10", "(i<10)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.str {
			t.Errorf("String(%#v) = %q, want %q", c.e, got, c.str)
		}
		if got := c.e.Key(); got != c.key {
			t.Errorf("Key(%#v) = %q, want %q", c.e, got, c.key)
		}
	}
}

func TestExprEqualDistinguishesStructure(t *testing.T) {
	// a+(b+c) vs (a+b)+c must differ: terms are syntactic.
	left := Add(V("a"), Add(V("b"), V("c")))
	right := Add(Add(V("a"), V("b")), V("c"))
	if ExprEqual(left, right) {
		t.Error("differently associated sums compared equal")
	}
	if !ExprEqual(left, Add(V("a"), Add(V("b"), V("c")))) {
		t.Error("identical terms compared unequal")
	}
	if ExprEqual(nil, left) || !ExprEqual(nil, nil) {
		t.Error("nil handling wrong")
	}
}

func TestVarsOf(t *testing.T) {
	e := Add(Mul(V("a"), V("b")), V("a"))
	vars := VarsOf(e)
	if len(vars) != 2 || !vars["a"] || !vars["b"] {
		t.Errorf("VarsOf = %v", vars)
	}
	if !UsesVar(e, "a") || UsesVar(e, "z") {
		t.Error("UsesVar wrong")
	}
}

func TestExprVarsOrderAndMultiplicity(t *testing.T) {
	e := Add(V("a"), Add(V("b"), V("a")))
	var seen []Var
	ExprVars(e, func(v Var) { seen = append(seen, v) })
	want := []Var{"a", "b", "a"}
	if len(seen) != len(want) {
		t.Fatalf("got %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("occurrence order %v, want %v", seen, want)
		}
	}
}

func TestSubExprs(t *testing.T) {
	e := Mul(Add(V("a"), C(1)), V("b"))
	subs := SubExprs(e)
	if len(subs) != 5 { // e, a+1, a, 1, b
		t.Fatalf("SubExprs returned %d nodes, want 5", len(subs))
	}
	if subs[0].Key() != e.Key() {
		t.Error("parents-first order violated")
	}
}

func TestIsTrivial(t *testing.T) {
	if !IsTrivial(C(1)) || !IsTrivial(V("x")) {
		t.Error("constants and variables must be trivial")
	}
	if IsTrivial(Add(V("a"), C(1))) || IsTrivial(Unary{Op: OpNeg, X: V("x")}) {
		t.Error("compound expressions must not be trivial")
	}
}

func TestStmtString(t *testing.T) {
	cases := []struct {
		s    Stmt
		want string
	}{
		{Assign{LHS: "x", RHS: Add(V("a"), V("b"))}, "x := a+b"},
		{Skip{}, "skip"},
		{Out{Arg: V("x")}, "out(x)"},
		{Branch{Cond: Bin(OpGt, V("i"), C(0))}, "branch(i>0)"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestUsesAndDefs(t *testing.T) {
	a := Assign{LHS: "x", RHS: Add(V("a"), V("x"))}
	uses := UsesSet(a)
	if !uses["a"] || !uses["x"] || len(uses) != 2 {
		t.Errorf("UsesSet(assign) = %v", uses)
	}
	if d, ok := Def(a); !ok || d != "x" {
		t.Error("Def(assign) wrong")
	}
	if _, ok := Def(Out{Arg: V("x")}); ok {
		t.Error("out statement has a def")
	}
	if !Mods(a, "x") || Mods(a, "a") {
		t.Error("Mods wrong")
	}
}

func TestRelevantPredicates(t *testing.T) {
	o := Out{Arg: Add(V("a"), V("b"))}
	b := Branch{Cond: V("c")}
	a := Assign{LHS: "x", RHS: V("a")}
	if !IsRelevant(o) || !IsRelevant(b) || IsRelevant(a) || IsRelevant(Skip{}) {
		t.Error("IsRelevant wrong")
	}
	if !RelvUses(o, "a") || RelvUses(o, "x") || RelvUses(a, "a") {
		t.Error("RelvUses wrong")
	}
	if !AssUses(a, "a") || AssUses(o, "a") || AssUses(a, "x") {
		t.Error("AssUses wrong")
	}
}

func TestStmtEqual(t *testing.T) {
	a1 := Assign{LHS: "x", RHS: Add(V("a"), V("b"))}
	a2 := Assign{LHS: "x", RHS: Add(V("a"), V("b"))}
	a3 := Assign{LHS: "y", RHS: Add(V("a"), V("b"))}
	if !StmtEqual(a1, a2) || StmtEqual(a1, a3) {
		t.Error("StmtEqual on assigns wrong")
	}
	if !StmtEqual(Skip{}, Skip{}) || StmtEqual(Skip{}, a1) {
		t.Error("StmtEqual on skip wrong")
	}
	if !StmtEqual(Out{Arg: V("x")}, Out{Arg: V("x")}) {
		t.Error("StmtEqual on out wrong")
	}
}

func TestPatternOfAndMatches(t *testing.T) {
	a := Assign{LHS: "x", RHS: Add(V("a"), V("b"))}
	p, ok := PatternOf(a)
	if !ok || p.LHS != "x" || p.RHS != "(a+b)" {
		t.Fatalf("PatternOf = %v, %v", p, ok)
	}
	if p.String() != "x := (a+b)" {
		t.Errorf("Pattern.String = %q", p.String())
	}
	if !p.Matches(Assign{LHS: "x", RHS: Add(V("a"), V("b"))}) {
		t.Error("pattern does not match identical assignment")
	}
	if p.Matches(Assign{LHS: "x", RHS: Add(V("b"), V("a"))}) {
		t.Error("pattern matches commuted term (terms are syntactic)")
	}
	if _, ok := PatternOf(Skip{}); ok {
		t.Error("PatternOf(skip) succeeded")
	}
}

func TestPatternBlocks(t *testing.T) {
	// α = x := a+b
	a := Assign{LHS: "x", RHS: Add(V("a"), V("b"))}
	p, _ := PatternOf(a)
	rhs := VarsOf(a.RHS)

	cases := []struct {
		s      Stmt
		blocks bool
		why    string
	}{
		{Assign{LHS: "a", RHS: C(1)}, true, "modifies operand a"},
		{Assign{LHS: "x", RHS: C(1)}, true, "modifies lhs x"},
		{Assign{LHS: "y", RHS: V("x")}, true, "uses x"},
		{Out{Arg: V("x")}, true, "relevant use of x"},
		{Branch{Cond: V("x")}, true, "branch uses x"},
		{Assign{LHS: "y", RHS: V("a")}, false, "only reads operand a"},
		{Out{Arg: V("a")}, false, "relevant use of operand only"},
		{Skip{}, false, "skip never blocks"},
		{a, true, "an occurrence blocks its own pattern (modifies x)"},
	}
	for _, c := range cases {
		if got := p.Blocks(c.s, rhs); got != c.blocks {
			t.Errorf("Blocks(%s) = %v, want %v (%s)", c.s, got, c.blocks, c.why)
		}
	}
}

func TestPatternTable(t *testing.T) {
	pt := NewPatternTable()
	a1 := Assign{LHS: "x", RHS: Add(V("a"), V("b"))}
	a2 := Assign{LHS: "y", RHS: Add(V("a"), V("b"))}
	i1 := pt.Add(a1)
	i2 := pt.Add(a2)
	if i1 == i2 {
		t.Error("distinct patterns share an index")
	}
	if pt.Add(Assign{LHS: "x", RHS: Add(V("a"), V("b"))}) != i1 {
		t.Error("re-adding a pattern changed its index")
	}
	if pt.Len() != 2 {
		t.Errorf("Len = %d", pt.Len())
	}
	if got := pt.MakeAssign(i1); !StmtEqual(got, a1) {
		t.Errorf("MakeAssign = %v", got)
	}
	if idx, ok := pt.IndexOfStmt(a2); !ok || idx != i2 {
		t.Error("IndexOfStmt wrong")
	}
	if !pt.BlocksIdx(Assign{LHS: "a", RHS: C(0)}, i1) {
		t.Error("BlocksIdx missed operand modification")
	}
}

func TestVarTable(t *testing.T) {
	vt := NewVarTable()
	vt.AddStmt(Assign{LHS: "x", RHS: Add(V("a"), V("b"))})
	vt.AddStmt(Out{Arg: V("c")})
	if vt.Len() != 4 {
		t.Fatalf("Len = %d, want 4", vt.Len())
	}
	if i, ok := vt.Index("a"); !ok || vt.Var(i) != "a" {
		t.Error("Index/Var roundtrip failed")
	}
	if _, ok := vt.Index("nope"); ok {
		t.Error("Index found unknown var")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on unknown var did not panic")
		}
	}()
	vt.MustIndex("nope")
}

func TestEval(t *testing.T) {
	env := EnvMap{"a": 7, "b": 3}
	cases := []struct {
		e    Expr
		want int64
	}{
		{C(5), 5},
		{V("a"), 7},
		{V("undefined"), 0},
		{Add(V("a"), V("b")), 10},
		{Sub(V("a"), V("b")), 4},
		{Mul(V("a"), V("b")), 21},
		{Bin(OpDiv, V("a"), V("b")), 2},
		{Bin(OpMod, V("a"), V("b")), 1},
		{Unary{Op: OpNeg, X: V("a")}, -7},
		{Bin(OpLt, V("b"), V("a")), 1},
		{Bin(OpGe, V("b"), V("a")), 0},
		{Bin(OpEq, V("a"), C(7)), 1},
		{Bin(OpNe, V("a"), C(7)), 0},
		{Bin(OpLe, V("a"), C(7)), 1},
		{Bin(OpGt, V("a"), C(7)), 0},
	}
	for _, c := range cases {
		got, err := Eval(c.e, env)
		if err != nil {
			t.Errorf("Eval(%s): %v", c.e, err)
			continue
		}
		if got != c.want {
			t.Errorf("Eval(%s) = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestEvalFaults(t *testing.T) {
	env := EnvMap{"z": 0}
	for _, e := range []Expr{
		Bin(OpDiv, C(1), V("z")),
		Bin(OpMod, C(1), V("z")),
		Add(C(1), Bin(OpDiv, C(2), V("z"))),
	} {
		if _, err := Eval(e, env); err == nil {
			t.Errorf("Eval(%s) did not fault", e)
		}
	}
}

func TestCanFault(t *testing.T) {
	if CanFault(Add(V("a"), V("b"))) {
		t.Error("addition cannot fault")
	}
	if !CanFault(Bin(OpDiv, V("a"), V("b"))) {
		t.Error("division can fault")
	}
	if !CanFault(Add(C(1), Bin(OpMod, V("a"), V("b")))) {
		t.Error("nested modulus can fault")
	}
}
