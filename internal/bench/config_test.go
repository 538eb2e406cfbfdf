package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLoadMatrixMissingIsDefault(t *testing.T) {
	m, err := LoadMatrix(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultMatrix()
	if m.Defaults.Seeds != def.Defaults.Seeds || len(m.Defaults.Sizes) != len(def.Defaults.Sizes) {
		t.Errorf("missing file defaults = %+v", m.Defaults)
	}
	if len(m.Smoke.Exps) == 0 {
		t.Error("missing file has no smoke matrix")
	}
}

func TestLoadMatrixBackfillsDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "experiments.json")
	doc := `{
  "defaults": {"seeds": 7},
  "experiments": [
    {"id": "C9", "params": {"programs": 40}, "quick_params": {"programs": 10}},
    {"id": "C1", "sizes": [32, 64], "seeds": 2, "repeats": 5}
  ]
}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Defaults.Seeds != 7 {
		t.Errorf("seeds = %d", m.Defaults.Seeds)
	}
	// Unset fields backfill from the built-in defaults.
	if len(m.Defaults.Sizes) == 0 || len(m.Defaults.QuickSizes) == 0 || len(m.Smoke.Exps) == 0 {
		t.Errorf("backfill missing: %+v", m)
	}

	c1 := m.Exp("C1")
	if got := m.Sizes(c1, false); len(got) != 2 || got[0] != 32 {
		t.Errorf("C1 sizes = %v", got)
	}
	if m.Seeds(c1) != 2 || m.Repeats(c1) != 5 {
		t.Errorf("C1 seeds/repeats = %d/%d", m.Seeds(c1), m.Repeats(c1))
	}
	// C1 declares no quick sizes → defaults.
	if got := m.Sizes(c1, true); len(got) != len(m.Defaults.QuickSizes) {
		t.Errorf("C1 quick sizes = %v", got)
	}

	c9 := m.Exp("C9")
	if m.Seeds(c9) != 7 {
		t.Errorf("C9 inherits seeds: %d", m.Seeds(c9))
	}
	if got := c9.Param("programs", false, 32, 12); got != 40 {
		t.Errorf("C9 programs = %d, want config 40", got)
	}
	if got := c9.Param("programs", true, 32, 12); got != 10 {
		t.Errorf("C9 quick programs = %d, want config 10", got)
	}
	if got := c9.Param("stmts", false, 256, 128); got != 256 {
		t.Errorf("C9 stmts = %d, want built-in 256", got)
	}
	if got := c9.Param("stmts", true, 256, 128); got != 128 {
		t.Errorf("C9 quick stmts = %d, want built-in 128", got)
	}

	// Unknown experiments resolve to all-defaults.
	cx := m.Exp("C99")
	if m.Seeds(cx) != 7 || cx.Param("anything", false, 3, 1) != 3 {
		t.Errorf("unknown experiment not defaulted")
	}
}

func TestLoadMatrixRejectsBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "experiments.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMatrix(path); err == nil {
		t.Error("malformed config accepted")
	}
}

func TestCheckConfigDefaults(t *testing.T) {
	c := CheckConfig{}.withDefaults()
	if c.Window != 5 || c.MADK != 4 || c.RelFloor != 0.10 || c.TimeRelFloor != 0.60 {
		t.Errorf("defaults = %+v", c)
	}
	c = CheckConfig{Window: 2, MADK: 1, RelFloor: 0.5, TimeRelFloor: 0.9}.withDefaults()
	if c.Window != 2 || c.MADK != 1 || c.RelFloor != 0.5 || c.TimeRelFloor != 0.9 {
		t.Errorf("overrides lost: %+v", c)
	}
}

// TestRepoMatrixMatchesBuiltins loads the committed experiments.json
// and checks it against the harness's built-in workload constants, so
// the config file and the code defaults can't drift silently.
func TestRepoMatrixMatchesBuiltins(t *testing.T) {
	m, err := LoadMatrix("../../experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Experiments) == 0 {
		t.Fatal("committed experiments.json declares no experiments")
	}
	for id, want := range map[string]map[string]int{
		"C9": {"programs": 32, "stmts": 256},
	} {
		e := m.Exp(id)
		for key, v := range want {
			if got := e.Param(key, false, -1, -1); got != v {
				t.Errorf("%s %s = %d, want %d", id, key, got, v)
			}
		}
	}
	if len(m.Smoke.Exps) == 0 || m.Smoke.Repeats < 2 {
		t.Errorf("smoke matrix %+v cannot feed the variance gate", m.Smoke)
	}
}
