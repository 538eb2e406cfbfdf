package pdce_test

import (
	"testing"

	"pdce"
)

// DetectLang decides from the first significant line alone: blank and
// comment lines are skipped, and a flow-graph keyword counts only when
// a space or a tab follows it.
func TestDetectLang(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"", "while"},
		{"\n\n   \n", "while"},
		{"\n\nnode 1 {}\nedge s 1", "cfg"},
		{"// a comment\n# another\nedge s e", "cfg"},
		{"# node 1 {}\nx := 1", "while"},
		{"// graph \"g\"\nout(1)", "while"},
		{"\r\n  \r\n\tgraph \"g\"\r\nnode 1 {}\r\n", "cfg"},
		{"  \t node 1 {}", "cfg"},
		{"graph \"g\"", "cfg"},
		{"graph\t\"g\"", "cfg"},
		{"node 1 {}", "cfg"},
		{"node\t1 {}", "cfg"},
		{"edge s e", "cfg"},
		{"edge\ts e", "cfg"},
		{"graph\nnode 1 {}", "while"},
		{"node\r\nedge s e", "while"},
		{"edge", "while"},
		{"nodes := 1\nnode 1 {}", "while"},
		{"x := 1\ngraph \"g\"", "while"},
		{"graph \"g\"\nnode 1 {}\n", "cfg"},
		{"node 1 { x := 1 }", "cfg"},
		{"// comment\n# another\nnode 1 {}", "cfg"},
		{"x := a + b\nout(x)", "while"},
		{"if * { out(1) }", "while"},
		{"// only comments", "while"},
		{"nodes := 1\nout(nodes)", "while"},
		{"edges := 2\nout(edges)", "while"},
	} {
		if got := pdce.DetectLang(c.src); got != c.want {
			t.Errorf("DetectLang(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}
