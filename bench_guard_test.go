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
// The budget is ~1.2x the measured value: about 2.7k allocations for
// pde and 2.6k for pfe since one walk indexes the program, Clone and
// the statement index fill slabs, and the delayability rows come from
// a pool (7.5k and 7.4k before that, 11.1k and 11.0k before the pattern
// table reused its key buffer, ~12.1k with one vector per node, the
// pre-pooling driver ~134k). The margin is tight on purpose: the count
// is deterministic for this program, so the only drift is a change to
// the driver, and the budget should trip on the one that brings back
// per-node allocations in Clone or the index, a per-lookup key string,
// or a per-node insertion slab, not only on a return to per-vector
// storage. Revisit the constant deliberately if the driver's structure
// changes.
func TestTransformAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	g := progen.Generate(progen.Params{Seed: 42, Stmts: 1024})
	const budget = 3_200

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
