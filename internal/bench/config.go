// Package bench is the experiments-as-config layer of the paper
// reproduction harness: the experiments.json matrix that cmd/benchpaper
// executes, the deterministic renderer that cmd/benchreport uses to
// generate the reproduction documentation from BENCH_paper.json
// history, and the noise-aware regression gate behind `benchreport
// -check`.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Matrix is the experiments.json document: the declared experiment
// matrix plus the regression-gate configuration. Every field has a
// built-in default, so a missing file behaves like the pre-config
// hardcoded harness.
type Matrix struct {
	Check       CheckConfig `json:"check"`
	Defaults    Defaults    `json:"defaults"`
	Smoke       Smoke       `json:"smoke"`
	Experiments []ExpConfig `json:"experiments,omitempty"`
}

// Defaults apply to every experiment that does not override them.
type Defaults struct {
	Seeds      int   `json:"seeds,omitempty"`
	Repeats    int   `json:"repeats,omitempty"`
	Sizes      []int `json:"sizes,omitempty"`
	QuickSizes []int `json:"quick_sizes,omitempty"`
}

// Smoke is the CI-scale matrix behind `make bench-check`: a subset of
// experiments at reduced size, run with its own seeds/repeats so the
// gate has variance to measure without a full benchmark run.
type Smoke struct {
	Exps    []string `json:"experiments,omitempty"`
	Seeds   int      `json:"seeds,omitempty"`
	Repeats int      `json:"repeats,omitempty"`
	Sizes   []int    `json:"sizes,omitempty"`
}

// ExpConfig declares one experiment of the matrix. Zero fields fall
// back to Defaults (seeds, repeats, sizes) or to the experiment's
// built-in workload constants (params).
type ExpConfig struct {
	ID          string         `json:"id"`
	Title       string         `json:"title,omitempty"`
	Seeds       int            `json:"seeds,omitempty"`
	Repeats     int            `json:"repeats,omitempty"`
	Sizes       []int          `json:"sizes,omitempty"`
	QuickSizes  []int          `json:"quick_sizes,omitempty"`
	Params      map[string]int `json:"params,omitempty"`
	QuickParams map[string]int `json:"quick_params,omitempty"`
}

// CheckConfig tunes the regression gate. The band around a baseline
// metric is max(MADK·spread, RelFloor·|baseline|), where spread is the
// larger of the baseline window's MAD and the newest run's
// across-repeat MAD; time-derived metrics (wall clock, throughput,
// speedups) use TimeRelFloor instead of RelFloor, since they move with
// the host. Directions overrides or disables the built-in
// better-direction table per metric ("lower", "higher", "skip").
type CheckConfig struct {
	Window       int               `json:"window,omitempty"`
	MADK         float64           `json:"mad_k,omitempty"`
	RelFloor     float64           `json:"rel_floor,omitempty"`
	TimeRelFloor float64           `json:"time_rel_floor,omitempty"`
	Directions   map[string]string `json:"directions,omitempty"`
}

func (c CheckConfig) withDefaults() CheckConfig {
	if c.Window <= 0 {
		c.Window = 5
	}
	if c.MADK <= 0 {
		c.MADK = 4
	}
	if c.RelFloor <= 0 {
		c.RelFloor = 0.10
	}
	if c.TimeRelFloor <= 0 {
		c.TimeRelFloor = 0.60
	}
	return c
}

// DefaultMatrix mirrors the harness's pre-config behaviour: the full
// and quick size sweeps and single-repeat runs.
func DefaultMatrix() *Matrix {
	return &Matrix{
		Defaults: Defaults{
			Seeds:      5,
			Repeats:    1,
			Sizes:      []int{64, 128, 256, 512, 1024, 2048, 4096},
			QuickSizes: []int{64, 128, 256, 512},
		},
		Smoke: Smoke{
			Exps:    []string{"C1", "C4"},
			Seeds:   3,
			Repeats: 2,
			Sizes:   []int{64, 128},
		},
	}
}

// LoadMatrix reads an experiments.json file; a missing file yields the
// built-in default matrix. Loaded documents are backfilled with the
// defaults for any zero field.
func LoadMatrix(path string) (*Matrix, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return DefaultMatrix(), nil
	}
	if err != nil {
		return nil, err
	}
	var m Matrix
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	def := DefaultMatrix()
	if m.Defaults.Seeds == 0 {
		m.Defaults.Seeds = def.Defaults.Seeds
	}
	if m.Defaults.Repeats == 0 {
		m.Defaults.Repeats = def.Defaults.Repeats
	}
	if len(m.Defaults.Sizes) == 0 {
		m.Defaults.Sizes = def.Defaults.Sizes
	}
	if len(m.Defaults.QuickSizes) == 0 {
		m.Defaults.QuickSizes = def.Defaults.QuickSizes
	}
	if len(m.Smoke.Exps) == 0 {
		m.Smoke = def.Smoke
	}
	return &m, nil
}

// Exp returns the declared config for an experiment id, or an empty
// config (all defaults) when the matrix does not mention it.
func (m *Matrix) Exp(id string) *ExpConfig {
	for i := range m.Experiments {
		if m.Experiments[i].ID == id {
			return &m.Experiments[i]
		}
	}
	return &ExpConfig{ID: id}
}

// Sizes resolves the program-size sweep for one experiment.
func (m *Matrix) Sizes(e *ExpConfig, quick bool) []int {
	if quick {
		if e != nil && len(e.QuickSizes) > 0 {
			return e.QuickSizes
		}
		return m.Defaults.QuickSizes
	}
	if e != nil && len(e.Sizes) > 0 {
		return e.Sizes
	}
	return m.Defaults.Sizes
}

// Seeds resolves the per-configuration seed count for one experiment.
func (m *Matrix) Seeds(e *ExpConfig) int {
	if e != nil && e.Seeds > 0 {
		return e.Seeds
	}
	return m.Defaults.Seeds
}

// Repeats resolves how many times one experiment runs per invocation.
func (m *Matrix) Repeats(e *ExpConfig) int {
	if e != nil && e.Repeats > 0 {
		return e.Repeats
	}
	if m.Defaults.Repeats > 0 {
		return m.Defaults.Repeats
	}
	return 1
}

// Param resolves a named workload knob: the quick override map wins in
// quick mode, then the full map, then the given built-in fallbacks.
func (e *ExpConfig) Param(key string, quick bool, full, quickDef int) int {
	if e != nil {
		if quick {
			if v, ok := e.QuickParams[key]; ok {
				return v
			}
		} else if v, ok := e.Params[key]; ok {
			return v
		}
	}
	if quick {
		return quickDef
	}
	return full
}
