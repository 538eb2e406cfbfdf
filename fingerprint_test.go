package pdce_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pdce"
)

// TestCacheKeyProperty is the content-addressing property test: over
// 200 generated programs, any formatting perturbation of the source —
// whitespace, indentation, comments, blank lines — must hash to the
// same CacheKey, and a semantic edit (a changed assignment RHS) must
// change it. This is the contract the pdced result cache stands on.
func TestCacheKeyProperty(t *testing.T) {
	const programs = 200
	opts := pdce.Options{Mode: pdce.Dead}
	edited := 0
	for seed := 0; seed < programs; seed++ {
		p := pdce.Generate(pdce.GenParams{
			Seed:        int64(seed),
			Stmts:       10 + seed%60,
			Vars:        2 + seed%6,
			Irreducible: seed%7 == 0,
		})
		src := p.Format()
		base, err := pdce.ParseCFG(src)
		if err != nil {
			t.Fatalf("seed %d: reparsing canonical format: %v", seed, err)
		}
		want := base.CacheKey(opts)

		for pi, perturb := range perturbations {
			mutated := perturb(src)
			q, err := pdce.ParseCFG(mutated)
			if err != nil {
				t.Fatalf("seed %d perturbation %d broke the parse: %v\n%s", seed, pi, err, mutated)
			}
			if got := q.CacheKey(opts); got != want {
				t.Errorf("seed %d perturbation %d changed the key: %s != %s", seed, pi, got, want)
			}
		}

		if semantic, ok := semanticEdit(src); ok {
			edited++
			q, err := pdce.ParseCFG(semantic)
			if err != nil {
				t.Fatalf("seed %d semantic edit broke the parse: %v", seed, err)
			}
			if q.CacheKey(opts) == want {
				t.Errorf("seed %d: semantic edit did not change the key\n%s", seed, semantic)
			}
		}
	}
	if edited < programs*9/10 {
		t.Fatalf("semantic edit applied to only %d/%d programs — the negative half of the property is undertested", edited, programs)
	}

	// Option changes that affect the result (or its payload) must also
	// change the key; option changes that cannot must not.
	p := pdce.Generate(pdce.GenParams{Seed: 42, Stmts: 40})
	base := p.CacheKey(pdce.Options{Mode: pdce.Dead})
	if p.CacheKey(pdce.Options{Mode: pdce.Faint}) == base {
		t.Error("pfe and pde share a key")
	}
	if p.CacheKey(pdce.Options{Mode: pdce.Dead, MaxRounds: 1}) == base {
		t.Error("truncated and full runs share a key")
	}
	if p.CacheKey(pdce.Options{Mode: pdce.Dead, Telemetry: true}) == base {
		t.Error("instrumented and plain runs share a key (payloads differ)")
	}
	if p.CacheKey(pdce.Options{Mode: pdce.Dead, Verify: true, VerifyRuns: 7}) != base {
		t.Error("verified mode changed the key (it cannot change a successful result)")
	}
}

// TestCacheKeyGolden pins Program.CacheKey across builds. Fleet stores
// keep results under these keys, so a key that moves while
// cacheKeyVersion stays put orphans every stored blob. A change that
// means to move them bumps the version and replaces
// testdata/cachekeys.golden with the lines this test prints.
func TestCacheKeyGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "cachekeys.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	figs, _ := filepath.Glob(filepath.Join("testdata", "fig*.cfg"))
	corpus, _ := filepath.Glob(filepath.Join("testdata", "corpus", "*.while"))
	var got []string
	for _, path := range append(figs, corpus...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var p *pdce.Program
		if strings.HasSuffix(path, ".cfg") {
			p, err = pdce.ParseCFG(string(data))
		} else {
			p, err = pdce.ParseSource(strings.TrimSuffix(filepath.Base(path), ".while"), string(data))
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, mode := range []pdce.Mode{pdce.Dead, pdce.Faint} {
			got = append(got, fmt.Sprintf("%s %s %s", filepath.ToSlash(path), mode, p.CacheKey(pdce.Options{Mode: mode})))
		}
	}
	if len(got) != 28 {
		t.Errorf("computed %d keys, want 28 (14 programs, pde and pfe)", len(got))
	}
	for i, line := range got {
		if i >= len(want) || line != want[i] {
			t.Errorf("cache key moved; new line:\n%s", line)
		}
	}
	if len(want) > len(got) {
		t.Errorf("golden file has %d lines, %d keys computed", len(want), len(got))
	}
	if v := pdce.CacheKeyVersion(); v != "pdce-cache-v2" {
		t.Errorf("CacheKeyVersion() = %q: a version bump needs new golden keys", v)
	}
}

// goldenPrograms generated programs are the inputs of TestFormatGolden
// and TestWorkGolden: structured and irreducible, 10 to 1,000
// statements.
const goldenPrograms = 12

func goldenProgram(seed int) *pdce.Program {
	return pdce.Generate(pdce.GenParams{Seed: int64(seed), Stmts: 10 + 90*seed, Irreducible: seed%3 == 2})
}

// TestFormatGolden pins Format's bytes beyond the golden-key inputs:
// structured and irreducible generated programs of 10 to 1,000
// statements, and their pde and pfe results, whose synthetic blocks
// carry quoted labels such as "S4,5". CacheKey hashes these bytes, so
// they may move only together with cacheKeyVersion.
func TestFormatGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "format.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	quoted := 0
	for seed := 0; seed < goldenPrograms; seed++ {
		p := goldenProgram(seed)
		texts := []string{p.Format()}
		for _, mode := range []pdce.Mode{pdce.Dead, pdce.Faint} {
			opt, _, err := p.Optimize(pdce.Options{Mode: mode})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, mode, err)
			}
			texts = append(texts, opt.Format())
		}
		for _, text := range texts {
			quoted += strings.Count(text, "\nnode \"")
			h.Write([]byte(text))
		}
	}
	if quoted == 0 {
		t.Error("no quoted node label rendered: the set no longer covers label quoting")
	}
	got := hex.EncodeToString(h.Sum(nil))
	if want := strings.TrimSpace(string(golden)); got != want {
		t.Errorf("Format's bytes moved: digest %s, testdata/format.sha256 has %s. "+
			"CacheKey hashes these bytes: bump cacheKeyVersion, regenerate "+
			"testdata/cachekeys.golden and record the new digest "+
			"(a change to progen alone needs only the new digest)", got, want)
	}
}

// perturbations are semantics-preserving rewrites of canonical CFG
// text. The "graph" header line is left alone — its quoted name is the
// only token whitespace could leak into.
var perturbations = []func(string) string{
	// Interleave comments in both syntaxes.
	func(s string) string {
		lines := strings.Split(s, "\n")
		out := []string{"# leading hash comment", "// leading slash comment"}
		for i, l := range lines {
			out = append(out, l)
			if i%3 == 0 {
				out = append(out, "  // interleaved comment")
			}
		}
		return strings.Join(out, "\n")
	},
	// Blank lines everywhere.
	func(s string) string {
		return strings.ReplaceAll(s, "\n", "\n\n")
	},
	// Trailing whitespace on every line.
	func(s string) string {
		lines := strings.Split(s, "\n")
		for i := range lines {
			if lines[i] != "" {
				lines[i] += "   "
			}
		}
		return strings.Join(lines, "\n")
	},
	// Tabs for indentation and doubled interior spacing (skipping the
	// quoted graph-name line).
	func(s string) string {
		lines := strings.Split(s, "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "graph ") {
				continue
			}
			l = strings.ReplaceAll(l, " ", "  ")
			if strings.HasPrefix(l, "    ") {
				l = "\t" + strings.TrimLeft(l, " ")
			}
			lines[i] = l
		}
		return strings.Join(lines, "\n")
	},
}

// assignLine matches an assignment statement inside a node body.
var assignLine = regexp.MustCompile(`(?m)^(\s+\w+ := )(.+)$`)

// semanticEdit changes the first assignment's RHS (t becomes t+1) —
// a minimal semantic difference that must move the content address.
func semanticEdit(src string) (string, bool) {
	loc := assignLine.FindStringSubmatchIndex(src)
	if loc == nil {
		return "", false
	}
	rhs := src[loc[4]:loc[5]]
	return src[:loc[4]] + fmt.Sprintf("(%s)+1", rhs) + src[loc[5]:], true
}
