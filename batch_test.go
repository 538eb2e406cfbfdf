package pdce_test

import (
	"fmt"
	"testing"

	"pdce"
)

// batchPrograms generates a mixed workload for the batch tests.
func batchPrograms(count int) []*pdce.Program {
	out := make([]*pdce.Program, count)
	for i := range out {
		p := pdce.GenParams{Seed: int64(i), Stmts: 80 + 10*(i%5), Vars: 4 + i%6}
		if i%4 == 3 {
			p.Irreducible = true
		}
		out[i] = pdce.Generate(p)
	}
	return out
}

// TestOptimizeAllMatchesSequential runs a 12-program batch through the
// concurrent pipeline (run under -race in CI) and checks each result
// against an individually-optimized reference.
func TestOptimizeAllMatchesSequential(t *testing.T) {
	progs := batchPrograms(12)
	for _, mode := range []pdce.Mode{pdce.Dead, pdce.Faint} {
		o := pdce.Options{Mode: mode}
		results := pdce.OptimizeAll(progs, o, 8)
		if len(results) != len(progs) {
			t.Fatalf("mode %v: got %d results for %d programs", mode, len(results), len(progs))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("mode %v, program %d: %v", mode, i, r.Err)
			}
			if r.Name != progs[i].Name() {
				t.Errorf("mode %v, program %d: result order broken: %q vs %q",
					mode, i, r.Name, progs[i].Name())
			}
			want, wantSt, err := progs[i].Optimize(o)
			if err != nil {
				t.Fatal(err)
			}
			if r.Program.Format() != want.Format() {
				t.Errorf("mode %v, program %d: batch result differs from sequential", mode, i)
			}
			if r.Stats != wantSt {
				t.Errorf("mode %v, program %d: stats differ: %+v vs %+v", mode, i, r.Stats, wantSt)
			}
		}
	}
}

// TestOptimizeAllMixedSizes runs batches whose program sizes alternate
// between large and small, so that every solve's delayability rows come
// from a pooled slab some other worker left dirty with a larger or a
// smaller program (run under -race in CI). Each result must match an
// individually optimized reference.
func TestOptimizeAllMixedSizes(t *testing.T) {
	sizes := []int{900, 12, 400, 30, 700, 6, 250, 60}
	progs := make([]*pdce.Program, len(sizes))
	for i, n := range sizes {
		progs[i] = pdce.Generate(pdce.GenParams{Seed: int64(100 + i), Stmts: n, Irreducible: i%3 == 2})
	}
	for _, mode := range []pdce.Mode{pdce.Dead, pdce.Faint} {
		o := pdce.Options{Mode: mode}
		want := make([]string, len(progs))
		for i, p := range progs {
			opt, _, err := p.Optimize(o)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = opt.Format()
		}
		for pass := 0; pass < 3; pass++ {
			for i, r := range pdce.OptimizeAll(progs, o, 4) {
				if r.Err != nil {
					t.Fatalf("mode %v pass %d, program %d: %v", mode, pass, i, r.Err)
				}
				if got := r.Program.Format(); got != want[i] {
					t.Fatalf("mode %v pass %d, program %d (%d statements): batch result differs from sequential", mode, pass, i, sizes[i])
				}
			}
		}
	}
}

// TestOptimizeAllWorkerCounts checks the pool produces the same results
// whatever its size, including degenerate counts.
func TestOptimizeAllWorkerCounts(t *testing.T) {
	progs := batchPrograms(9)
	o := pdce.Options{Mode: pdce.Dead}
	ref := pdce.OptimizeAll(progs, o, 1)
	for _, workers := range []int{0, 2, 16} {
		got := pdce.OptimizeAll(progs, o, workers)
		for i := range ref {
			if got[i].Program.Format() != ref[i].Program.Format() {
				t.Errorf("workers=%d, program %d: result differs from workers=1", workers, i)
			}
		}
	}
	if res := pdce.OptimizeAll(nil, o, 4); len(res) != 0 {
		t.Errorf("empty batch returned %d results", len(res))
	}
}

// TestOptimizeAllDoesNotMutateInputs verifies batch jobs only read
// their input programs — the guarantee that makes sharing one program
// across concurrent jobs safe.
func TestOptimizeAllDoesNotMutateInputs(t *testing.T) {
	progs := batchPrograms(8)
	before := make([]string, len(progs))
	for i, p := range progs {
		before[i] = p.Format()
	}
	pdce.OptimizeAll(progs, pdce.Options{Mode: pdce.Faint}, 4)
	for i, p := range progs {
		if p.Format() != before[i] {
			t.Errorf("program %d was mutated by OptimizeAll", i)
		}
	}
}

// BenchmarkOptimizeAll measures batch throughput at different pool
// sizes (the C9 experiment's microbenchmark form).
func BenchmarkOptimizeAll(b *testing.B) {
	progs := batchPrograms(16)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := pdce.OptimizeAll(progs, pdce.Options{Mode: pdce.Dead}, workers)
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
