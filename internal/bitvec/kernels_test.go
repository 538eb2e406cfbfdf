package bitvec

import (
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
