// Benchmarks regenerating the paper's artifacts, one per table and
// figure (DESIGN.md's experiment index):
//
//   - BenchmarkFigNN: the full pde (or pfe, where the figure is about
//     faintness) transformation on each paper example.
//   - BenchmarkTable1Dead / BenchmarkTable1Faint: the Table 1 analyses.
//   - BenchmarkTable2Delayability: the Table 2 analysis.
//   - BenchmarkPDEScaling / BenchmarkPFEScaling: Section 6's
//     complexity claims, swept over program size.
//   - BenchmarkBaselines: the conventional eliminators for comparison.
//
// Run with: go test -bench=. -benchmem
package pdce_test

import (
	"fmt"
	"testing"

	"pdce/internal/analysis"
	"pdce/internal/baseline"
	"pdce/internal/cfg"
	"pdce/internal/copyprop"
	"pdce/internal/core"
	"pdce/internal/figures"
	"pdce/internal/hoist"
	"pdce/internal/interp"
	"pdce/internal/lcm"
	"pdce/internal/parser"
	"pdce/internal/progen"
	"pdce/internal/ssa"
	"pdce/internal/verify"
)

// benchFigure runs the driver over one paper figure per iteration.
func benchFigure(b *testing.B, num int, mode core.Mode) {
	b.Helper()
	fig, err := figures.ByNum(num)
	if err != nil {
		b.Fatal(err)
	}
	g := fig.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Transform(g, core.Options{Mode: mode}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01(b *testing.B) { benchFigure(b, 1, core.ModeDead) }
func BenchmarkFig03(b *testing.B) { benchFigure(b, 3, core.ModeDead) }
func BenchmarkFig05(b *testing.B) { benchFigure(b, 5, core.ModeDead) }
func BenchmarkFig07(b *testing.B) { benchFigure(b, 7, core.ModeDead) }
func BenchmarkFig08(b *testing.B) { benchFigure(b, 8, core.ModeDead) }
func BenchmarkFig09(b *testing.B) { benchFigure(b, 9, core.ModeFaint) }
func BenchmarkFig10(b *testing.B) { benchFigure(b, 10, core.ModeDead) }
func BenchmarkFig11(b *testing.B) { benchFigure(b, 11, core.ModeDead) }
func BenchmarkFig12(b *testing.B) { benchFigure(b, 12, core.ModeFaint) }

// BenchmarkFig13 measures the block-local predicate computation the
// figure illustrates (sinking candidates).
func BenchmarkFig13(b *testing.B) {
	fig, err := figures.ByNum(13)
	if err != nil {
		b.Fatal(err)
	}
	g := fig.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeLocals(g)
	}
}

// benchSizes are the program sizes the scaling benchmarks sweep.
var benchSizes = []int{64, 256, 1024, 4096}

func scaledProgram(n int) *cfg.Graph {
	return progen.Generate(progen.Params{Seed: 42, Stmts: n})
}

// --- Table 1 -----------------------------------------------------------

func BenchmarkTable1Dead(b *testing.B) {
	for _, n := range benchSizes {
		g := scaledProgram(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analysis.DeadVars(g)
			}
		})
	}
}

func BenchmarkTable1Faint(b *testing.B) {
	for _, n := range benchSizes {
		g := scaledProgram(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analysis.FaintVars(g)
			}
		})
	}
}

// BenchmarkTable1FaintBlockwise measures the block-level engine's
// faint solve — the optimizer's — for comparison with the paper's
// slotwise algorithm.
func BenchmarkTable1FaintBlockwise(b *testing.B) {
	for _, n := range benchSizes {
		g := scaledProgram(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analysis.NewElimSolver(g, analysis.NewFootprints(g), true).Solve(nil)
			}
		})
	}
}

// --- Table 2 -----------------------------------------------------------

func BenchmarkTable2Delayability(b *testing.B) {
	for _, n := range benchSizes {
		g := scaledProgram(n)
		cfg.SplitCriticalEdges(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analysis.Delayability(g)
			}
		})
	}
}

// --- Front end -----------------------------------------------------------

// BenchmarkParseCFG parses the Format text of a generated program, the
// step every library solve and every cold pdced request starts with.
func BenchmarkParseCFG(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		src := scaledProgram(n).Format()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := parser.ParseCFG(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Section 6: full transformation scaling -----------------------------

func BenchmarkPDEScaling(b *testing.B) {
	for _, n := range benchSizes {
		g := scaledProgram(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.PDE(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPFEScaling(b *testing.B) {
	for _, n := range benchSizes {
		g := scaledProgram(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.PFE(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPDEIrreducible exercises the slotwise regime the paper's
// Section 6.1.1 reserves for arbitrary control flow.
func BenchmarkPDEIrreducible(b *testing.B) {
	for _, n := range benchSizes {
		g := progen.Generate(progen.Params{Seed: 42, Stmts: n, Irreducible: true})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.PDE(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- baselines ----------------------------------------------------------

func BenchmarkBaselines(b *testing.B) {
	g := scaledProgram(1024)
	b.Run("dce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.IteratedDCE(g)
		}
	})
	b.Run("fce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.IteratedFCE(g)
		}
	})
	b.Run("dudce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.DefUseDCE(g)
		}
	})
	b.Run("ssadce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ssa.Eliminate(g)
		}
	})
	b.Run("pde", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.PDE(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pfe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.PFE(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lcm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lcm.Optimize(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSSABuild isolates SSA construction (the baseline's
// substrate).
func BenchmarkSSABuild(b *testing.B) {
	for _, n := range benchSizes {
		g := scaledProgram(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ssa.Build(g)
			}
		})
	}
}

// BenchmarkCriticalEdgeSplit isolates the Section 2.1 normalization.
func BenchmarkCriticalEdgeSplit(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := scaledProgram(n)
				b.StartTimer()
				cfg.SplitCriticalEdges(g)
			}
		})
	}
}

// BenchmarkInterpreter measures the verification substrate (one
// bounded execution per iteration).
func BenchmarkInterpreter(b *testing.B) {
	g := scaledProgram(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := interp.RunSeeded(g, uint64(i))
		if tr.BlockVisits == 0 {
			b.Fatal("empty execution")
		}
	}
}

// BenchmarkHoist measures the Related-Work hoisting baseline.
func BenchmarkHoist(b *testing.B) {
	g := scaledProgram(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := hoist.Optimize(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCopyProp measures global copy propagation.
func BenchmarkCopyProp(b *testing.B) {
	g := scaledProgram(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copyprop.Optimize(g)
	}
}

// BenchmarkChaoticDriver measures the Theorem 3.7 chaotic-iteration
// driver against the deterministic one (BenchmarkPDEScaling).
func BenchmarkChaoticDriver(b *testing.B) {
	g := scaledProgram(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.TransformChaotic(g, core.ModeDead, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify measures the replay-based checker itself.
func BenchmarkVerify(b *testing.B) {
	g := scaledProgram(256)
	opt, _, err := core.PDE(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := verify.CheckTransformed(g, opt, verify.Options{Seeds: 8, Fuel: 256})
		if !rep.OK() {
			b.Fatal(rep.String())
		}
	}
}
