package parser_test

import (
	"errors"
	"strings"
	"testing"

	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/parser"
)

// checkErrorPosition fails unless a rejected input's *parser.Error
// points inside the source: 1 ≤ line ≤ the number of '\n'-separated
// lines, and 1 ≤ col ≤ that line's byte length + 1. An error about the
// whole graph carries no position and is not checked.
func checkErrorPosition(t *testing.T, src string, err error) {
	t.Helper()
	var pe *parser.Error
	if !errors.As(err, &pe) {
		return
	}
	lines := strings.Split(src, "\n")
	if pe.Line < 1 || pe.Line > len(lines) || pe.Col < 1 || pe.Col > len(lines[pe.Line-1])+1 {
		t.Fatalf("error %q points outside the %d-line source %q", err, len(lines), src)
	}
}

// FuzzParseSource: the WHILE-language parser must never panic; a
// rejected input's error must point inside it; on success the lowered
// graph must be valid and its Format output must re-parse.
func FuzzParseSource(f *testing.F) {
	seeds := []string{
		"x := a + b\nout(x)",
		"if * { out(1) } else { out(2) }",
		"while i > 0 { i := i - 1 }\nout(i)",
		"do { x := x + 1 } while x < 10\nout(x)",
		"if a > 0 { while * { skip } }\nout(a)",
		"x := -(a*b) % (c-4)\nout(x)",
		"// comment\nx := 1; y := 2\nout(x+y)",
		"}{",
		"x :=",
		"if { }",
		"do { } until *",
		"out(((((1)))))",
		// CRLF line endings and comments before the error.
		"x := 1\r\n// comment\r\ny := $\r\nout(y)",
		"# comment\r\nif * {\r\n  out(\"a\r\n}",
		"x := a // trailing\r\n\r\nout(x +\r\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := parser.ParseSource("fuzz", src)
		if err != nil {
			checkErrorPosition(t, src, err)
			return // rejected inputs are fine; panics are not
		}
		if errs := cfg.Validate(g); len(errs) > 0 {
			t.Fatalf("accepted program is invalid: %v\n%q", errs, src)
		}
		back, err := parser.ParseCFG(g.Format())
		if err != nil {
			t.Fatalf("Format output does not re-parse: %v\n%s", err, g.Format())
		}
		if !cfg.Equal(g, back) {
			t.Fatalf("Format round trip changed the graph for %q", src)
		}
	})
}

// FuzzParseCFG: the low-level parser must never panic, a rejected
// input's error must point inside it, and accepted graphs must survive
// Format/ParseCFG unchanged, name included, and both pipelines, pde
// and pfe, without breaking invariants.
func FuzzParseCFG(f *testing.F) {
	seeds := []string{
		"graph \"g\"\nnode 1 { x := a+b }\nnode 2 { out(x) }\nedge s 1\nedge 1 2\nedge 2 e",
		"node 1 {}\nedge s 1\nedge 1 e",
		"node 1 { branch(x>0) }\nnode 2 {}\nnode 3 {}\nedge s 1\nedge 1 2\nedge 1 3\nedge 2 e\nedge 3 e",
		"node \"S4,5\" synthetic {}\nedge s \"S4,5\"\nedge \"S4,5\" e",
		"node 1 { x := x+1 }\nnode 2 {}\nedge s 2\nedge 2 1\nedge 1 2\nedge 2 e",
		"edge s e",
		"node e { skip }",
		"graph",
		// Names and labels Format once printed in forms the lexer
		// rejects or splits.
		"node \"1a\" {}\nedge s \"1a\"\nedge \"1a\" e",
		"node \"1.5\" {}\nnode \".\" {}\nedge s \"1.5\"\nedge \"1.5\" \".\"\nedge \".\" e",
		"node \"99999999999999999999\" {}\nedge s \"99999999999999999999\"\nedge \"99999999999999999999\" e",
		"graph \"\x11\"\nnode \"\t\xff\" {}\nedge s \"\t\xff\"\nedge \"\t\xff\" e",
		// CRLF line endings and comments before the error.
		"node 1 {\r\n  x := a+b\r\n}\r\n// comment\r\nedge s 1\r\nedge 1 $\r\n",
		"# comment\r\nnode 1 { x := a }\r\nedge s 1\r\nedge s 1\r\nedge 1 e\r\n",
		"// comment\r\nnode 1 {\r\n  out(\"\\q\")\r\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := parser.ParseCFG(src)
		if err != nil {
			checkErrorPosition(t, src, err)
			return
		}
		// Accepted graphs are valid by construction...
		cfg.MustValidate(g)
		back, err := parser.ParseCFG(g.Format())
		if err != nil {
			t.Fatalf("Format output does not re-parse: %v\n%s", err, g.Format())
		}
		if back.Name != g.Name || !cfg.Equal(g, back) {
			t.Fatalf("Format round trip changed the graph for %q", src)
		}
		// ...and both optimizers must handle them.
		for _, run := range []func(*cfg.Graph) (*cfg.Graph, core.Stats, error){core.PDE, core.PFE} {
			opt, _, err := run(g)
			if err != nil {
				t.Fatalf("optimizer failed on accepted graph: %v\n%s", err, g.Format())
			}
			cfg.MustValidate(opt)
		}
	})
}

// FuzzParseExpr: expression parsing never panics; a rejected input's
// error points inside it; accepted expressions round-trip through
// String.
func FuzzParseExpr(f *testing.F) {
	for _, s := range []string{
		"a+b*c", "(a+b)*c", "-x", "1/0", "a%b==c", "a<b", "((a))", "-",
		// CRLF line endings and comments before the error.
		"\r\n// comment\r\na + $", "# comment\r\n\r\n(a\r\n", "a // comment\r\n b",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := parser.ParseExpr(src)
		if err != nil {
			checkErrorPosition(t, src, err)
			return
		}
		back, err := parser.ParseExpr(e.String())
		if err != nil {
			t.Fatalf("String output %q does not re-parse: %v", e.String(), err)
		}
		if back.Key() != e.Key() {
			t.Fatalf("round trip changed %q -> %q", e.Key(), back.Key())
		}
	})
}
