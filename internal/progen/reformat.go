package progen

import "strings"

// Reformats returns semantics-preserving rewrites of canonical CFG
// text (cfg.Graph.Format's output): interleaved comments, blank lines,
// trailing whitespace, and tab indentation with doubled interior
// spacing. Each parses to the same flow graph as src, so it has the
// same cache key; the content-addressing property tests send them.
// The "graph" header line is left alone — its quoted name is the only
// token whitespace could leak into.
func Reformats(src string) []string {
	lines := func() []string { return strings.Split(src, "\n") }

	commented := []string{"# leading hash comment", "// leading slash comment"}
	for i, l := range lines() {
		commented = append(commented, l)
		if i%3 == 0 {
			commented = append(commented, "  // interleaved comment")
		}
	}

	trailing := lines()
	for i := range trailing {
		if trailing[i] != "" {
			trailing[i] += "   "
		}
	}

	tabbed := lines()
	for i, l := range tabbed {
		if strings.HasPrefix(l, "graph ") {
			continue
		}
		l = strings.ReplaceAll(l, " ", "  ")
		if strings.HasPrefix(l, "    ") {
			l = "\t" + strings.TrimLeft(l, " ")
		}
		tabbed[i] = l
	}

	return []string{
		strings.Join(commented, "\n"),
		strings.ReplaceAll(src, "\n", "\n\n"),
		strings.Join(trailing, "\n"),
		strings.Join(tabbed, "\n"),
	}
}
