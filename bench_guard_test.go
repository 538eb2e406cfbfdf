package pdce_test

import (
	"testing"

	"pdce/internal/core"
	"pdce/internal/progen"
)

// TestTransformAllocBudget guards the allocation discipline of the
// incremental driver: a full pde or pfe run on the standard
// 1024-statement generated program must stay within a fixed allocation
// budget.
//
// The budget is ~2x the measured value with per-node vector families
// stored as row slabs (about 12.1k allocations for pde and 12.0k for
// pfe; one allocation per vector needed ~18.2k and ~16.9k, the
// pre-pooling driver ~134k), so it trips on a regression that
// reintroduces per-vector or per-round allocation of analysis storage
// or per-statement re-resolution, while leaving room for routine
// drift. Revisit the constant deliberately if the driver's structure
// changes.
func TestTransformAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	g := progen.Generate(progen.Params{Seed: 42, Stmts: 1024})
	const budget = 25_000

	for _, mode := range []core.Mode{core.ModeDead, core.ModeFaint} {
		avg := testing.AllocsPerRun(3, func() {
			if _, _, err := core.Transform(g, core.Options{Mode: mode}); err != nil {
				t.Fatal(err)
			}
		})
		if avg > budget {
			t.Errorf("core.Transform (%v) allocated %.0f objects on the 1024-stmt program, budget %d", mode, avg, budget)
		}
	}
}
