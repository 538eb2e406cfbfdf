package pdce_test

import (
	"testing"

	"pdce/internal/core"
	"pdce/internal/progen"
)

// TestTransformAllocBudget guards the allocation discipline of the
// incremental driver: a full pde run on the standard 1024-statement
// generated program must stay within a fixed allocation budget.
//
// The budget is ~2x the measured value of the single-engine driver
// (about 21.5k allocations; the pooled-storage driver before the
// rewrite-hint work needed ~28k, the pre-pooling one ~134k), so it
// trips on a regression that reintroduces per-round re-allocation of
// analysis storage or per-statement re-resolution, while leaving room
// for routine drift. Revisit the constant deliberately if the driver's
// structure changes.
func TestTransformAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	g := progen.Generate(progen.Params{Seed: 42, Stmts: 1024})
	const budget = 45_000

	avg := testing.AllocsPerRun(3, func() {
		if _, _, err := core.Transform(g, core.Options{Mode: core.ModeDead}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("core.Transform allocated %.0f objects on the 1024-stmt program, budget %d", avg, budget)
	}
}
