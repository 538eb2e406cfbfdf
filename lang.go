package pdce

import "strings"

// DetectLang guesses which front end parses src: "cfg" when the first
// significant line opens with one of the low-level format's keywords
// (graph, node, edge), "while" otherwise. RequestOptions.Parse applies
// it when no language is forced, so cmd/pdce, pdced and Pool detect
// alike.
func DetectLang(src string) string {
	for rest := src; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "#") {
			continue
		}
		for _, kw := range []string{"graph", "node", "edge"} {
			if strings.HasPrefix(line, kw+" ") || strings.HasPrefix(line, kw+"\t") {
				return "cfg"
			}
		}
		return "while"
	}
	return "while"
}
