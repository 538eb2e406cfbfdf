package bitvec

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomVec returns a vector of n bits with each bit set with
// probability p.
func randomVec(rng *rand.Rand, n int, p float64) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			v.Set(i)
		}
	}
	return v
}

// TestAndNotOrIntoMatchesComposition cross-checks the fused transfer
// kernel against the three-step composition it replaces, across sizes
// that exercise empty, single-word, word-boundary and trailing-word
// layouts.
func TestAndNotOrIntoMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 63, 64, 65, 128, 200, 1000} {
		for trial := 0; trial < 20; trial++ {
			src := randomVec(rng, n, 0.5)
			kill := randomVec(rng, n, 0.3)
			gen := randomVec(rng, n, 0.3)
			dst := randomVec(rng, n, 0.5)

			want := src.Copy()
			want.AndNot(kill)
			want.Or(gen)
			wantChanged := !want.Equal(dst)

			gotChanged := dst.AndNotOrInto(src, kill, gen)
			if !dst.Equal(want) {
				t.Fatalf("n=%d: AndNotOrInto = %s, want %s", n, dst, want)
			}
			if gotChanged != wantChanged {
				t.Fatalf("n=%d: changed = %v, want %v", n, gotChanged, wantChanged)
			}
		}
	}
}

// TestAndNotOrIntoAliasing: v may alias src (the in-place transfer the
// solver uses when meet and transfer share storage).
func TestAndNotOrIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 130
		v := randomVec(rng, n, 0.5)
		kill := randomVec(rng, n, 0.3)
		gen := randomVec(rng, n, 0.3)

		want := v.Copy()
		want.AndNot(kill)
		want.Or(gen)

		v.AndNotOrInto(v, kill, gen)
		if !v.Equal(want) {
			t.Fatalf("aliased AndNotOrInto = %s, want %s", v, want)
		}
	}
}

// TestBinaryIntoKernels checks AndInto / AndNotInto against
// their two-step equivalents, including aliasing with either operand.
func TestBinaryIntoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kernels := []struct {
		name string
		into func(v, a, b *Vector)
		ref  func(v, b *Vector)
	}{
		{"AndInto", func(v, a, b *Vector) { v.AndInto(a, b) }, func(v, b *Vector) { v.And(b) }},
		{"AndNotInto", func(v, a, b *Vector) { v.AndNotInto(a, b) }, func(v, b *Vector) { v.AndNot(b) }},
	}
	for _, k := range kernels {
		for _, n := range []int{1, 64, 65, 300} {
			for trial := 0; trial < 10; trial++ {
				a := randomVec(rng, n, 0.5)
				b := randomVec(rng, n, 0.5)
				want := a.Copy()
				k.ref(want, b)

				dst := New(n)
				k.into(dst, a, b)
				if !dst.Equal(want) {
					t.Fatalf("%s n=%d: got %s, want %s", k.name, n, dst, want)
				}
				// Alias with a.
				av := a.Copy()
				k.into(av, av, b)
				if !av.Equal(want) {
					t.Fatalf("%s n=%d aliased: got %s, want %s", k.name, n, av, want)
				}
			}
		}
	}
}

// TestOrAndNotMatchesComposition checks the fused raise step against a
// temporary AndNotInto and an Or, its change report, and aliasing of v
// with a.
func TestOrAndNotMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 63, 64, 65, 300} {
		for trial := 0; trial < 10; trial++ {
			a := randomVec(rng, n, 0.5)
			b := randomVec(rng, n, 0.5)
			dst := randomVec(rng, n, 0.3)
			tmp := New(n)
			tmp.AndNotInto(a, b)
			want := dst.Copy()
			wantChanged := want.Or(tmp)

			if got := dst.OrAndNot(a, b); got != wantChanged || !dst.Equal(want) {
				t.Fatalf("n=%d: OrAndNot = %s changed %v, want %s changed %v", n, dst, got, want, wantChanged)
			}
			av := a.Copy()
			av.OrAndNot(av, b)
			if !av.Equal(a) {
				t.Fatalf("n=%d aliased: got %s, want %s", n, av, a)
			}
		}
	}
}

// TestAndNotOrIntoTrailingWord: gen bits beyond the logical length can
// never appear (all constructors keep high bits clear), so the fused
// kernel must preserve the trim invariant that Equal and IsZero rely
// on.
func TestAndNotOrIntoTrailingWord(t *testing.T) {
	n := 70 // 6 live bits in the second word
	src := NewAllOnes(n)
	kill := New(n)
	gen := NewAllOnes(n)
	dst := New(n)
	dst.AndNotOrInto(src, kill, gen)
	if !dst.Equal(NewAllOnes(n)) {
		t.Fatalf("got %s", dst)
	}
	if dst.Count() != n {
		t.Fatalf("count = %d, want %d (stray trailing-word bits?)", dst.Count(), n)
	}
}

func TestOrNot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		v, w := New(n), New(n)
		for b := 0; b < n; b++ {
			if rng.Intn(2) == 0 {
				v.Set(b)
			}
			if rng.Intn(2) == 0 {
				w.Set(b)
			}
		}
		want := New(n)
		for b := 0; b < n; b++ {
			if v.Get(b) || !w.Get(b) {
				want.Set(b)
			}
		}
		v.OrNot(w)
		if !v.Equal(want) {
			t.Fatalf("n=%d: OrNot = %s, want %s", n, v, want)
		}
		// The complement of bits past Len must not leak in.
		if v.Count() > n {
			t.Fatalf("OrNot set bits beyond Len: count %d > %d", v.Count(), n)
		}
	}
}

// kernel describes one word-parallel kernel for the bit-serial oracle
// of TestKernelsMatchBitSerial: run applies it to dst and ops and
// returns its changed report (false for kernels that report none), bit
// computes one result bit from the destination's old bit and the
// operands' bits, and aliases lists the operands dst may alias by the
// kernel's doc comment.
type kernel struct {
	name    string
	arity   int
	reports bool
	aliases []int
	run     func(dst *Vector, ops []*Vector) bool
	bit     func(d bool, ops []bool) bool
}

var kernels = []kernel{
	{name: "And", arity: 1, reports: true,
		run: func(d *Vector, o []*Vector) bool { return d.And(o[0]) },
		bit: func(d bool, o []bool) bool { return d && o[0] }},
	{name: "Or", arity: 1, reports: true,
		run: func(d *Vector, o []*Vector) bool { return d.Or(o[0]) },
		bit: func(d bool, o []bool) bool { return d || o[0] }},
	{name: "AndNot", arity: 1, reports: true,
		run: func(d *Vector, o []*Vector) bool { return d.AndNot(o[0]) },
		bit: func(d bool, o []bool) bool { return d && !o[0] }},
	{name: "AndNotOrInto", arity: 3, reports: true, aliases: []int{0},
		run: func(d *Vector, o []*Vector) bool { return d.AndNotOrInto(o[0], o[1], o[2]) },
		bit: func(_ bool, o []bool) bool { return o[0] && !o[1] || o[2] }},
	{name: "AndInto", arity: 2, aliases: []int{0, 1},
		run: func(d *Vector, o []*Vector) bool { d.AndInto(o[0], o[1]); return false },
		bit: func(_ bool, o []bool) bool { return o[0] && o[1] }},
	{name: "AndNotInto", arity: 2, aliases: []int{0, 1},
		run: func(d *Vector, o []*Vector) bool { d.AndNotInto(o[0], o[1]); return false },
		bit: func(_ bool, o []bool) bool { return o[0] && !o[1] }},
	{name: "OrNot", arity: 1,
		run: func(d *Vector, o []*Vector) bool { d.OrNot(o[0]); return false },
		bit: func(d bool, o []bool) bool { return d || !o[0] }},
}

// kernelSizes straddle word boundaries and include the pattern width of
// a 4,096-statement progen program.
var kernelSizes = []int{1, 63, 64, 65, 127, 128, 129, 300, 2671}

// densities include the all-zero and all-one vectors, so that every
// kernel meets inputs that leave its destination unchanged.
var densities = []float64{0, 0.02, 0.5, 0.98, 1}

// checkTail fails when v holds a set bit at or beyond Len.
func checkTail(t *testing.T, what string, v *Vector) {
	t.Helper()
	if len(v.words) != (v.n+wordBits-1)/wordBits {
		t.Fatalf("%s: %d words for %d bits", what, len(v.words), v.n)
	}
	if r := uint(v.n % wordBits); r != 0 && v.words[len(v.words)-1]>>r != 0 {
		t.Fatalf("%s: bits set beyond Len %d: last word %#x", what, v.n, v.words[len(v.words)-1])
	}
}

// TestKernelsMatchBitSerial checks every word-parallel kernel's result
// and changed report against a reference that reads and writes one bit
// at a time through Get and Set, with the destination separate and
// aliasing each operand its doc comment allows.
func TestKernelsMatchBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pick := func() float64 { return densities[rng.Intn(len(densities))] }
	for _, k := range kernels {
		for _, n := range kernelSizes {
			for trial := 0; trial < 40; trial++ {
				for alias := -1; alias < len(k.aliases); alias++ {
					ops := make([]*Vector, k.arity)
					for i := range ops {
						ops[i] = randomVec(rng, n, pick())
					}
					dst := randomVec(rng, n, pick())
					if alias >= 0 {
						dst = ops[k.aliases[alias]]
					}
					want, wantChanged := New(n), false
					in := make([]bool, k.arity)
					for b := 0; b < n; b++ {
						for i, o := range ops {
							in[i] = o.Get(b)
						}
						old := dst.Get(b)
						nb := k.bit(old, in)
						if nb {
							want.Set(b)
						}
						wantChanged = wantChanged || nb != old
					}
					what := fmt.Sprintf("%s n=%d trial %d alias %d", k.name, n, trial, alias)
					changed := k.run(dst, ops)
					checkTail(t, what, dst)
					for b := 0; b < n; b++ {
						if dst.Get(b) != want.Get(b) {
							t.Fatalf("%s: bit %d = %v, want %v", what, b, dst.Get(b), want.Get(b))
						}
					}
					if k.reports && changed != wantChanged {
						t.Fatalf("%s: changed = %v, want %v", what, changed, wantChanged)
					}
				}
			}
		}
	}
}

// TestEqualMatchesBitSerial checks Equal against a bit-by-bit compare,
// on equal vectors, on vectors one bit apart and on random pairs.
func TestEqualMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range kernelSizes {
		for trial := 0; trial < 40; trial++ {
			a := randomVec(rng, n, densities[rng.Intn(len(densities))])
			var b *Vector
			switch trial % 3 {
			case 0:
				b = a.Copy()
			case 1:
				b = a.Copy()
				if i := rng.Intn(n); b.Get(i) {
					b.Clear(i)
				} else {
					b.Set(i)
				}
			default:
				b = randomVec(rng, n, densities[rng.Intn(len(densities))])
			}
			want := true
			for i := 0; i < n; i++ {
				want = want && a.Get(i) == b.Get(i)
			}
			if got := a.Equal(b); got != want {
				t.Fatalf("n=%d trial %d: Equal = %v, want %v", n, trial, got, want)
			}
		}
	}
}

// kernelResult keeps the compiler from dropping a benchmarked call.
var kernelResult bool

// BenchmarkKernels times each kernel and Equal at 2,671 bits, the
// pattern width of a 4,096-statement progen program.
func BenchmarkKernels(b *testing.B) {
	const n = 2671
	rng := rand.New(rand.NewSource(24))
	ops := []*Vector{randomVec(rng, n, 0.5), randomVec(rng, n, 0.5), randomVec(rng, n, 0.5)}
	dst := randomVec(rng, n, 0.5)
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernelResult = k.run(dst, ops[:k.arity])
			}
		})
	}
	b.Run("Equal", func(b *testing.B) {
		c := dst.Copy()
		for i := 0; i < b.N; i++ {
			kernelResult = dst.Equal(c)
		}
	})
}
