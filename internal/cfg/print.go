package cfg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"pdce/internal/ir"
)

// Format renders the graph in the low-level textual format accepted by
// internal/parser.ParseCFG, so Format/ParseCFG round-trip:
//
//	graph "name"
//	node 1 {
//	  y := a+b
//	}
//	edge s 1
//	edge 1 e
//
// Start and end nodes are implicit ("s" and "e"). Nodes appear in ID
// order, edges in source-ID order; the rendering is deterministic.
func (g *Graph) Format() string { return string(g.AppendFormat(nil)) }

// AppendFormat appends Format's text to dst and returns the extended
// slice.
func (g *Graph) AppendFormat(dst []byte) []byte {
	dst = appendQuoted(append(dst, "graph "...), g.Name)
	dst = append(dst, '\n')
	for _, n := range g.nodes {
		if n == g.Start || n == g.End {
			continue
		}
		dst = appendLabel(append(dst, "node "...), n.Label)
		if n.Synthetic {
			dst = append(dst, " synthetic"...)
		}
		dst = append(dst, " {\n"...)
		for _, s := range n.Stmts {
			dst = ir.AppendStmt(append(dst, "  "...), s)
			dst = append(dst, '\n')
		}
		dst = append(dst, "}\n"...)
	}
	for _, e := range g.Edges() {
		dst = appendLabel(append(dst, "edge "...), e.From.Label)
		dst = appendLabel(append(dst, ' '), e.To.Label)
		dst = append(dst, '\n')
	}
	return dst
}

// appendLabel writes a label bare only when the parser's lexer reads it
// back as one token — an identifier, or a decimal integer in int64
// range — and quoted otherwise.
func appendLabel(dst []byte, l string) []byte {
	bare := l != ""
	if bare && l[0] >= '0' && l[0] <= '9' {
		_, err := strconv.ParseInt(l, 10, 64)
		bare = err == nil
	} else {
		for i := 0; bare && i < len(l); i++ {
			c := l[i]
			bare = c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
				i > 0 && (c == '.' || c >= '0' && c <= '9')
		}
	}
	if bare {
		return append(dst, l...)
	}
	return appendQuoted(dst, l)
}

// appendQuoted writes s as a string literal with exactly the escapes
// the lexer reads back; every other byte is written raw.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// String returns a compact human-oriented listing: one line per node
// with its statements and successors. Used in error messages and by
// cmd/figures.
func (g *Graph) String() string {
	var dst []byte
	for _, n := range g.nodes {
		// The label is padded to 8 runes, not bytes.
		dst = append(dst, n.Label...)
		for pad := 8 - utf8.RuneCountInString(n.Label); pad > 0; pad-- {
			dst = append(dst, ' ')
		}
		dst = append(dst, " ["...)
		for i, s := range n.Stmts {
			if i > 0 {
				dst = append(dst, "; "...)
			}
			dst = ir.AppendStmt(dst, s)
		}
		dst = append(dst, "] ->"...)
		for _, s := range n.succs {
			dst = append(append(dst, ' '), s.Label...)
		}
		// Trailing spaces are trimmed, a last successor label's
		// included; the "->" stops the trim.
		for dst[len(dst)-1] == ' ' {
			dst = dst[:len(dst)-1]
		}
		dst = append(dst, '\n')
	}
	return string(dst)
}

// Snapshot captures the statements of every node keyed by label, for
// structural comparison in tests.
func (g *Graph) Snapshot() map[string][]string {
	m := make(map[string][]string, len(g.nodes))
	for _, n := range g.nodes {
		strs := make([]string, len(n.Stmts))
		for i, s := range n.Stmts {
			strs[i] = s.String()
		}
		m[n.Label] = strs
	}
	return m
}

// Diff compares two graphs structurally — same labels, same per-node
// statements, same edges — and returns a human-readable description of
// every discrepancy, or nil if the graphs are identical. Statement
// order within a node is significant.
func Diff(a, b *Graph) []string {
	var diffs []string
	as, bs := a.Snapshot(), b.Snapshot()
	labels := make(map[string]bool)
	for l := range as {
		labels[l] = true
	}
	for l := range bs {
		labels[l] = true
	}
	sorted := make([]string, 0, len(labels))
	for l := range labels {
		sorted = append(sorted, l)
	}
	sort.Strings(sorted)
	for _, l := range sorted {
		sa, aOK := as[l]
		sb, bOK := bs[l]
		switch {
		case !aOK:
			diffs = append(diffs, fmt.Sprintf("node %s only in second graph", l))
		case !bOK:
			diffs = append(diffs, fmt.Sprintf("node %s only in first graph", l))
		case strings.Join(sa, ";") != strings.Join(sb, ";"):
			diffs = append(diffs, fmt.Sprintf("node %s: [%s] vs [%s]",
				l, strings.Join(sa, "; "), strings.Join(sb, "; ")))
		}
	}
	ae, be := edgeSet(a), edgeSet(b)
	var edgeKeys []string
	for k := range ae {
		edgeKeys = append(edgeKeys, k)
	}
	for k := range be {
		if !ae[k] {
			edgeKeys = append(edgeKeys, k)
		}
	}
	sort.Strings(edgeKeys)
	for _, k := range edgeKeys {
		switch {
		case !ae[k]:
			diffs = append(diffs, fmt.Sprintf("edge %s only in second graph", k))
		case !be[k]:
			diffs = append(diffs, fmt.Sprintf("edge %s only in first graph", k))
		}
	}
	return diffs
}

func edgeSet(g *Graph) map[string]bool {
	m := make(map[string]bool)
	for _, e := range g.Edges() {
		m[e.From.Label+"->"+e.To.Label] = true
	}
	return m
}

// Equal reports whether a and b are structurally identical (see Diff).
func Equal(a, b *Graph) bool { return len(Diff(a, b)) == 0 }

// PatternCounts tallies, per assignment pattern, the number of static
// occurrences in the program — the quantity the paper's Definition 3.6
// compares along paths.
func PatternCounts(g *Graph) map[ir.Pattern]int {
	m := make(map[ir.Pattern]int)
	for _, n := range g.nodes {
		for _, s := range n.Stmts {
			if p, ok := ir.PatternOf(s); ok {
				m[p]++
			}
		}
	}
	return m
}
