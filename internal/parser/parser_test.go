package parser

import (
	"fmt"
	"strings"
	"testing"

	"pdce/internal/cfg"
	"pdce/internal/ir"
)

// lex reads all of src through the parsers' token cursor. A lexical
// error ends the stream; lex returns it as the parsers would.
func lex(src string) ([]Token, error) {
	t := newTokens(src)
	var toks []Token
	for {
		tok := t.next()
		switch tok.Kind {
		case TokError:
			return nil, t.errf(tok, "")
		case TokEOF:
			return append(toks, tok), nil
		}
		toks = append(toks, tok)
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("x := a + 42 // comment\nout(x)")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokIdent, TokAssign, TokIdent, TokOp, TokInt, TokSemi, TokIdent, TokLParen, TokIdent, TokRParen, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: kind %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexMergesSeparators(t *testing.T) {
	toks, err := lex("a := 1\n\n\n;;\nb := 2")
	if err != nil {
		t.Fatal(err)
	}
	semis := 0
	for _, tok := range toks {
		if tok.Kind == TokSemi {
			semis++
		}
	}
	if semis != 1 {
		t.Errorf("separator runs not merged: %d semis", semis)
	}
}

func TestLexStringsAndEscapes(t *testing.T) {
	toks, err := lex(`graph "hello \"w\" \n x"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokString || toks[1].Text != "hello \"w\" \n x" {
		t.Errorf("string token = %q", toks[1].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		"x : y",         // lone colon
		"a = b",         // lone equals
		"a ! b",         // lone bang
		`"unclosed`,     // unterminated string
		"x := $y",       // bad character
		"x := \"a\\q\"", // unknown escape
	} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lex("a := 1\n  b := 2")
	if err != nil {
		t.Fatal(err)
	}
	// Token "b" is on line 2, column 3.
	var bTok *Token
	for i := range toks {
		if toks[i].Text == "b" {
			bTok = &toks[i]
		}
	}
	if bTok == nil || bTok.Line != 2 || bTok.Col != 3 {
		t.Errorf("position of b = %+v", bTok)
	}
}

// parseAs runs one of the three front ends over src.
func parseAs(front, src string) error {
	var err error
	switch front {
	case "cfg":
		_, err = ParseCFG(src)
	case "while":
		_, err = ParseSource("p", src)
	case "expr":
		_, err = ParseExpr(src)
	}
	return err
}

// A program whose only defect is lexical fails with the lexical error,
// message and line:col, wherever the defect sits. The expected errors
// are those of the lexer that tokenized the whole input before parsing.
func TestLexicalErrorPositions(t *testing.T) {
	bad := []string{":", "=", "!", `"abc`, `"a\qb"`, "$", "99999999999999999999"}
	for _, c := range []struct {
		front, template string
		want            []string // one per bad lexeme
	}{
		{"cfg", "graph %s\nnode 1 {\n  x := a+b\n}\nedge s 1\nedge 1 e\n", []string{
			"1:8: unexpected ':' (expected ':=')",
			"1:8: unexpected \"=\" (expected \"==\")",
			"1:8: unexpected \"!\" (expected \"!=\")",
			"1:11: unterminated string literal",
			"1:11: unknown escape \\q",
			"1:8: unexpected character \"$\"",
			"1:27: integer literal \"99999999999999999999\" out of range",
		}},
		{"cfg", "graph \"g\"\nnode 1 {\n  x := %s\n}\nedge s 1\nedge 1 e\n", []string{
			"3:9: unexpected ':' (expected ':=')",
			"3:9: unexpected \"=\" (expected \"==\")",
			"3:9: unexpected \"!\" (expected \"!=\")",
			"3:12: unterminated string literal",
			"3:12: unknown escape \\q",
			"3:9: unexpected character \"$\"",
			"3:28: integer literal \"99999999999999999999\" out of range",
		}},
		{"cfg", "graph \"g\"\nnode 1 {\n  x := a+b\n}\nedge s 1\nedge 1 %s", []string{
			"6:9: unexpected ':' (expected ':=')",
			"6:9: unexpected \"=\" (expected \"==\")",
			"6:9: unexpected \"!\" (expected \"!=\")",
			"6:12: unterminated string literal",
			"6:12: unknown escape \\q",
			"6:9: unexpected character \"$\"",
			"6:28: integer literal \"99999999999999999999\" out of range",
		}},
		{"while", "x := %s\nif * {\n  y := x\n}\nout(y)", []string{
			"1:7: unexpected ':' (expected ':=')",
			"1:7: unexpected \"=\" (expected \"==\")",
			"1:7: unexpected \"!\" (expected \"!=\")",
			"1:10: unterminated string literal",
			"1:10: unknown escape \\q",
			"1:7: unexpected character \"$\"",
			"1:26: integer literal \"99999999999999999999\" out of range",
		}},
		{"while", "x := a\nif * {\n  y := %s\n}\nout(y)", []string{
			"3:9: unexpected ':' (expected ':=')",
			"3:9: unexpected \"=\" (expected \"==\")",
			"3:9: unexpected \"!\" (expected \"!=\")",
			"3:12: unterminated string literal",
			"3:12: unknown escape \\q",
			"3:9: unexpected character \"$\"",
			"3:28: integer literal \"99999999999999999999\" out of range",
		}},
		{"while", "x := a\nif * {\n  y := x\n}\nout(y + %s)", []string{
			"5:10: unexpected ':' (expected ':=')",
			"5:10: unexpected \"=\" (expected \"==\")",
			"5:10: unexpected \"!\" (expected \"!=\")",
			"5:14: unterminated string literal",
			"5:13: unknown escape \\q",
			"5:10: unexpected character \"$\"",
			"5:29: integer literal \"99999999999999999999\" out of range",
		}},
		{"expr", "%s + a*b", []string{
			"1:2: unexpected ':' (expected ':=')",
			"1:2: unexpected \"=\" (expected \"==\")",
			"1:2: unexpected \"!\" (expected \"!=\")",
			"1:11: unterminated string literal",
			"1:5: unknown escape \\q",
			"1:2: unexpected character \"$\"",
			"1:21: integer literal \"99999999999999999999\" out of range",
		}},
		{"expr", "a*(%s - b)", []string{
			"1:5: unexpected ':' (expected ':=')",
			"1:5: unexpected \"=\" (expected \"==\")",
			"1:5: unexpected \"!\" (expected \"!=\")",
			"1:13: unterminated string literal",
			"1:8: unknown escape \\q",
			"1:5: unexpected character \"$\"",
			"1:24: integer literal \"99999999999999999999\" out of range",
		}},
		{"expr", "a*b + %s", []string{
			"1:8: unexpected ':' (expected ':=')",
			"1:8: unexpected \"=\" (expected \"==\")",
			"1:8: unexpected \"!\" (expected \"!=\")",
			"1:11: unterminated string literal",
			"1:11: unknown escape \\q",
			"1:8: unexpected character \"$\"",
			"1:27: integer literal \"99999999999999999999\" out of range",
		}},
	} {
		for i, b := range bad {
			src := fmt.Sprintf(c.template, b)
			if err := parseAs(c.front, src); err == nil || err.Error() != c.want[i] {
				t.Errorf("%s %q: error %v, want %s", c.front, src, err, c.want[i])
			}
		}
	}
}

// With a lexical and a syntax error in one program, the earlier one is
// reported, in either order.
func TestFirstErrorReported(t *testing.T) {
	for _, c := range []struct{ front, src, want string }{
		{"cfg", "x : y", `1:1: expected 'node' or 'edge', found "x"`},
		{"cfg", ": x", `1:2: unexpected ':' (expected ':=')`},
		{"cfg", "graph \"g\"\nnode 1 {\n  x := )\n}\nedge s $\n", `3:8: expected expression, found ')' ")"`},
		{"cfg", "graph \"g\"\nnode 1 {\n  x := $\n}\nedge s )\n", `3:9: unexpected character "$"`},
		{"while", "x := )\ny := $", `1:6: expected expression, found ')' ")"`},
		{"while", "x := $\ny := )", `1:7: unexpected character "$"`},
		{"expr", ") + $", `1:1: expected expression, found ')' ")"`},
		{"expr", "$ + )", `1:2: unexpected character "$"`},
	} {
		if err := parseAs(c.front, c.src); err == nil || err.Error() != c.want {
			t.Errorf("%s %q: error %v, want %s", c.front, c.src, err, c.want)
		}
	}
}

func TestParseExprPrecedence(t *testing.T) {
	cases := []struct{ src, key string }{
		{"a+b*c", "(a+(b*c))"},
		{"a*b+c", "((a*b)+c)"},
		{"(a+b)*c", "((a+b)*c)"},
		{"a-b-c", "((a-b)-c)"}, // left assoc
		{"a/b%c", "((a/b)%c)"},
		{"-a+b", "((-a)+b)"},
		{"-5", "-5"}, // folded literal
		{"a < b+1", "(a<(b+1))"},
		{"a+b == c*d", "((a+b)==(c*d))"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.src, err)
			continue
		}
		if e.Key() != c.key {
			t.Errorf("ParseExpr(%q).Key() = %q, want %q", c.src, e.Key(), c.key)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, src := range []string{
		"", "a +", "(a", "a b", "a < b < c", "* a",
	} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error", src)
		}
	}
}

func TestParseExprRoundTrip(t *testing.T) {
	// String() output must re-parse to the same term.
	for _, src := range []string{
		"a+b*c", "(a+b)*c", "a-(b-c)", "-x*3", "x%2==0",
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", e.String(), src, err)
		}
		if !ir.ExprEqual(e, e2) {
			t.Errorf("round trip of %q changed term: %q vs %q", src, e.Key(), e2.Key())
		}
	}
}

func TestParseCFGBasic(t *testing.T) {
	g, err := ParseCFG(`
graph "demo"
node 1 {
  y := a+b
  out(y)
}
node 2 {}
edge s 1
edge 1 2
edge 2 e
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "demo" {
		t.Errorf("name = %q", g.Name)
	}
	n1, ok := g.NodeByLabel("1")
	if !ok || len(n1.Stmts) != 2 {
		t.Fatalf("node 1 wrong: %v", n1)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Errorf("shape wrong: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestParseCFGErrors(t *testing.T) {
	cases := []struct{ name, src, frag string }{
		{"undeclared edge", "node 1 {}\nedge s 2\nedge 1 e\nedge s 1", "undeclared"},
		{"duplicate node", "node 1 {}\nnode 1 {}\nedge s 1\nedge 1 e", "duplicate node"},
		{"duplicate edge", "node 1 {}\nedge s 1\nedge s 1\nedge 1 e", "duplicate edge"},
		{"stmts in start", "node s { skip }\nnode 1 {}\nedge s 1\nedge 1 e", "must be empty"},
		{"unterminated body", "node 1 { x := 1", "unterminated"},
		{"invalid structure", "node 1 {}\nedge s 1", "invalid graph"},
		{"garbage", "blah blah", "expected 'node' or 'edge'"},
	}
	for _, c := range cases {
		_, err := ParseCFG(c.src)
		if err == nil {
			t.Errorf("%s: parse succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestParseCFGFormatRoundTrip(t *testing.T) {
	src := `graph "rt"
node 1 {
  y := a+b
  branch(y>0)
}
node 2 {
  out(y)
}
node 3 synthetic {
  skip
}
edge s 1
edge 1 2
edge 1 3
edge 2 e
edge 3 e
`
	g, err := ParseCFG(src)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseCFG(g.Format())
	if err != nil {
		t.Fatalf("re-parse of Format output: %v\n%s", err, g.Format())
	}
	if !cfg.Equal(g, g2) {
		t.Errorf("round trip changed graph:\n%s\nvs\n%s", g.Format(), g2.Format())
	}
	n3, _ := g2.NodeByLabel("3")
	if !n3.Synthetic {
		t.Error("synthetic flag lost in round trip")
	}
}

func TestParseCFGQuotedLabels(t *testing.T) {
	g, err := ParseCFG(`
node "S4,5" synthetic { x := a+b }
node 1 { out(x) }
edge s "S4,5"
edge "S4,5" 1
edge 1 e
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.NodeByLabel("S4,5"); !ok {
		t.Error("quoted label lost")
	}
	// Round trip must preserve the quoted label.
	g2, err := ParseCFG(g.Format())
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Equal(g, g2) {
		t.Error("quoted-label round trip failed")
	}
}

// TestFormatRoundTripsAwkwardNames pins Format's round-trip promise on
// labels the lexer cannot read back bare (a digit-led non-integer, an
// out-of-range integer, punctuation) and on names and labels holding
// bytes Go's %q would escape in ways the lexer rejects.
func TestFormatRoundTripsAwkwardNames(t *testing.T) {
	for _, tc := range []struct{ name, label string }{
		{"g", "1a"},
		{"g", "1.5"},
		{"g", "."},
		{"g", "99999999999999999999"},
		{"tab\there", "1"},
		{"g", "tab\there"},
		{"\x11", "\x11"},
		{"\xff", "\xff"},
	} {
		g := cfg.New(tc.name)
		n := g.AddNode(tc.label)
		n.Stmts = []ir.Stmt{ir.Out{Arg: ir.Const{Value: 1}}}
		g.AddEdge(g.Start, n)
		g.AddEdge(n, g.End)
		back, err := ParseCFG(g.Format())
		if err != nil {
			t.Errorf("graph %q, label %q: Format output does not re-parse: %v\n%s", tc.name, tc.label, err, g.Format())
			continue
		}
		if back.Name != g.Name || !cfg.Equal(g, back) {
			t.Errorf("graph %q, label %q: round trip changed the graph:\n%s\nvs\n%s", tc.name, tc.label, g.Format(), back.Format())
		}
	}
}

func TestParseSourceStraightLine(t *testing.T) {
	g, err := ParseSource("p", `
x := a + b
out(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStmts() != 2 {
		t.Errorf("NumStmts = %d", g.NumStmts())
	}
	cfg.MustValidate(g)
}

func TestParseSourceIfShapes(t *testing.T) {
	// Concrete condition: branch statement, then/else order.
	g, err := ParseSource("p", `
if a > 0 {
  out(a)
} else {
  out(b)
}
out(c)
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MustValidate(g)
	var branchNode *cfg.Node
	for _, n := range g.Nodes() {
		if _, ok := n.Terminator(); ok {
			branchNode = n
		}
	}
	if branchNode == nil {
		t.Fatal("no branch node lowered")
	}
	if len(branchNode.Succs()) != 2 {
		t.Fatal("branch has wrong successor count")
	}
	// First successor holds the then-branch out(a).
	thenN := branchNode.Succs()[0]
	if len(thenN.Stmts) != 1 || thenN.Stmts[0].String() != "out(a)" {
		t.Errorf("then target wrong: %v", thenN.Stmts)
	}

	// Nondeterministic: no branch statement anywhere.
	g2, err := ParseSource("p2", "if * { out(a) } else { out(b) }")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g2.Nodes() {
		if _, ok := n.Terminator(); ok {
			t.Error("nondet if produced a branch statement")
		}
	}
}

func TestParseSourceIfWithoutElse(t *testing.T) {
	g, err := ParseSource("p", `
if x > 1 { x := 0 }
out(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MustValidate(g)
}

func TestParseSourceWhileShape(t *testing.T) {
	g, err := ParseSource("p", `
while i > 0 { i := i - 1 }
out(i)
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MustValidate(g)
	// Find the loop header: a branch node with a back edge.
	var header *cfg.Node
	for _, n := range g.Nodes() {
		if _, ok := n.Terminator(); ok {
			header = n
		}
	}
	if header == nil {
		t.Fatal("no header")
	}
	body := header.Succs()[0]
	found := false
	for _, s := range body.Succs() {
		if s == header {
			found = true
		}
	}
	if !found {
		t.Error("loop body does not latch back to header")
	}
}

func TestParseSourceDoWhileShape(t *testing.T) {
	g, err := ParseSource("p", `
do { i := i - 1 } while i > 0
out(i)
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MustValidate(g)
	// The latch holds the branch; its first successor is the body.
	var latch *cfg.Node
	for _, n := range g.Nodes() {
		if _, ok := n.Terminator(); ok {
			latch = n
		}
	}
	if latch == nil {
		t.Fatal("no latch")
	}
	back := latch.Succs()[0]
	if len(back.Stmts) != 1 || back.Stmts[0].String() != "i := i-1" {
		t.Errorf("latch back target is not the body: %v", back.Stmts)
	}
	// The body must be reachable without passing the branch: a
	// do-while body executes at least once.
	if len(back.Preds()) != 2 {
		t.Errorf("body preds = %d, want 2 (entry + latch)", len(back.Preds()))
	}
}

func TestParseSourceNested(t *testing.T) {
	g, err := ParseSource("p", `
i := n
while * {
  if i > 10 {
    do { i := i - 2 } while *
  } else {
    i := i + 1
  }
}
out(i)
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MustValidate(g)
	if g.NumStmts() < 4 {
		t.Errorf("nested program lost statements: %d", g.NumStmts())
	}
}

func TestParseSourceErrors(t *testing.T) {
	for _, src := range []string{
		"if a > 0 { out(a) ",    // unterminated block
		"while { out(a) }",      // missing condition
		"do { x := 1 }",         // missing while
		"do { x := 1 } until *", // wrong keyword
		"branch(x)",             // branch not a source statement
		"x := ",                 // missing RHS
		"} ",                    // stray brace
	} {
		if _, err := ParseSource("p", src); err == nil {
			t.Errorf("ParseSource(%q) succeeded, want error", src)
		}
	}
}

func TestSourceCommentsAndSemicolons(t *testing.T) {
	g, err := ParseSource("p", `
# hash comment
x := 1; y := 2 // two on one line
out(x+y)
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStmts() != 3 {
		t.Errorf("NumStmts = %d, want 3", g.NumStmts())
	}
}

func TestLowerPreservesProgramOrder(t *testing.T) {
	g, err := ParseSource("p", `
a := 1
b := 2
out(a+b)
`)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, n := range g.Nodes() {
		for _, s := range n.Stmts {
			all = append(all, s.String())
		}
	}
	want := []string{"a := 1", "b := 2", "out(a+b)"}
	if strings.Join(all, ";") != strings.Join(want, ";") {
		t.Errorf("statement order %v, want %v", all, want)
	}
}
