// Package bitvec provides dense, fixed-length bit vectors.
//
// The dataflow analyses of Knoop/Rüthing/Steffen's partial dead code
// elimination (dead variables, delayability) are classic bit-vector
// problems: one bit per variable or per assignment pattern, with
// meet/join realized by word-parallel AND/OR. This package is the
// shared representation for all of them.
//
// A Vector has a fixed length chosen at creation time. Operations that
// combine two vectors panic if the lengths differ: mixing vectors from
// different analysis universes is always a programming error, and
// failing loudly during development is preferable to silent truncation.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a dense bit vector of fixed length. The zero value is an
// empty vector of length 0; use New to create a sized one.
type Vector struct {
	n     int
	words []uint64
}

// New returns a vector of n bits, all zero.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewAllOnes returns a vector of n bits, all one.
func NewAllOnes(n int) *Vector {
	v := New(n)
	v.SetAll()
	return v
}

// Rows returns count zeroed n-bit vectors backed by one word slab and
// one header slab: three allocations whatever count is. The solvers
// store each per-node vector family this way — one row per node,
// allocated once per run and never resized. Rows do not alias: each
// row's words are capped at its own stride.
func Rows(count, n int) []*Vector {
	var s Slab
	return s.Rows(count, n)
}

// Slab is row storage reused from one run to the next: a solver takes
// one from a pool, carves its vector families out of it, and returns
// it when the run ends. The zero value is an empty slab.
type Slab struct {
	words []uint64
	hdrs  []Vector
	rows  []*Vector
}

// Rows carves count n-bit rows out of s, laid out as bitvec.Rows lays
// them out, growing s's storage where it is too small. Storage that is
// reused keeps the bits of its previous use, beyond n in a row's last
// word too, so every row must be overwritten in full (CopyFrom,
// ClearAll, SetAll, or a kernel writing each word) before it is read.
// The rows alias s until its next Rows call.
func (s *Slab) Rows(count, n int) []*Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	stride := (n + wordBits - 1) / wordBits
	s.words = resize(s.words, count*stride)
	s.hdrs = resize(s.hdrs, count)
	s.rows = resize(s.rows, count)
	for i := range s.rows {
		lo, hi := i*stride, (i+1)*stride
		s.hdrs[i] = Vector{n: n, words: s.words[lo:hi:hi]}
		s.rows[i] = &s.hdrs[i]
	}
	return s.rows
}

// resize returns x with length k, reallocated (zeroed) only when its
// capacity is short.
func resize[T any](x []T, k int) []T {
	if cap(x) < k {
		return make([]T, k)
	}
	return x[:k]
}

// Len returns the number of bits in v.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

func (v *Vector) checkSame(w *Vector) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to one.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to zero.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// SetAll sets every bit to one.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// ClearAll sets every bit to zero.
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so that Equal,
// Count and IsZero can operate word-wise.
func (v *Vector) trim() {
	if r := uint(v.n % wordBits); r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
}

// Copy returns an independent copy of v.
func (v *Vector) Copy() *Vector {
	w := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of w. Lengths must match.
func (v *Vector) CopyFrom(w *Vector) {
	v.checkSame(w)
	copy(v.words, w.words)
}

// The kernels below re-slice every operand to the source's length, so
// the compiler drops per-word bounds checks, and OR the word
// differences into their changed report instead of branching per word.

// And sets v = v AND w and reports whether v changed.
func (v *Vector) And(w *Vector) bool {
	v.checkSame(w)
	dst := v.words[:len(w.words)]
	var diff uint64
	for i, x := range w.words {
		nw := dst[i] & x
		diff |= dst[i] ^ nw
		dst[i] = nw
	}
	return diff != 0
}

// Or sets v = v OR w and reports whether v changed.
func (v *Vector) Or(w *Vector) bool {
	v.checkSame(w)
	dst := v.words[:len(w.words)]
	var diff uint64
	for i, x := range w.words {
		nw := dst[i] | x
		diff |= dst[i] ^ nw
		dst[i] = nw
	}
	return diff != 0
}

// AndNot sets v = v AND NOT w and reports whether v changed.
func (v *Vector) AndNot(w *Vector) bool {
	v.checkSame(w)
	dst := v.words[:len(w.words)]
	var diff uint64
	for i, x := range w.words {
		nw := dst[i] &^ x
		diff |= dst[i] ^ nw
		dst[i] = nw
	}
	return diff != 0
}

// AndNotOrInto sets v = (src AND NOT kill) OR gen in a single pass and
// reports whether v changed. It is the canonical gen/kill transfer
// step x ↦ (x − kill) ∪ gen fused with the solver's change test and
// result copy, which would otherwise cost three word sweeps (transfer
// into a temporary, Equal, CopyFrom). All four vectors must have the
// same length; v may alias src.
func (v *Vector) AndNotOrInto(src, kill, gen *Vector) bool {
	v.checkSame(src)
	v.checkSame(kill)
	v.checkSame(gen)
	s := src.words
	dst, k, g := v.words[:len(s)], kill.words[:len(s)], gen.words[:len(s)]
	var diff uint64
	for i, x := range s {
		nw := (x &^ k[i]) | g[i]
		diff |= dst[i] ^ nw
		dst[i] = nw
	}
	return diff != 0
}

// OrAndNot sets v = v OR (a AND NOT b) in a single pass and reports
// whether v changed. It carries raised bits along a flow edge into a
// block that kills b (dataflow.Solver.Resolve), which would otherwise
// cost a temporary, an AndNotInto and an Or. v may alias a.
func (v *Vector) OrAndNot(a, b *Vector) bool {
	v.checkSame(a)
	v.checkSame(b)
	dst, bw := v.words[:len(a.words)], b.words[:len(a.words)]
	var diff uint64
	for i, x := range a.words {
		nw := dst[i] | (x &^ bw[i])
		diff |= dst[i] ^ nw
		dst[i] = nw
	}
	return diff != 0
}

// AndInto sets v = a AND b in a single pass — the two-predecessor meet
// fused with the copy that would otherwise seed it. v may alias a or b.
func (v *Vector) AndInto(a, b *Vector) {
	v.checkSame(a)
	v.checkSame(b)
	dst, bw := v.words[:len(a.words)], b.words[:len(a.words)]
	for i, x := range a.words {
		dst[i] = x & bw[i]
	}
}

// AndNotInto sets v = a AND NOT b in a single pass. v may alias a or b.
// It exists for the single-successor X-INSERT case
// X-DELAYED · ¬N-DELAYED_succ, which would otherwise cost a clear, an
// OrNot and an And.
func (v *Vector) AndNotInto(a, b *Vector) {
	v.checkSame(a)
	v.checkSame(b)
	dst, bw := v.words[:len(a.words)], b.words[:len(a.words)]
	for i, x := range a.words {
		dst[i] = x &^ bw[i]
	}
}

// OrNot sets v = v OR NOT w. The complement respects the vector
// length (no stray high bits). It exists for the delayability
// insertion predicate Σ ¬N-DELAYED, which would otherwise need a
// temporary copy per successor.
func (v *Vector) OrNot(w *Vector) {
	v.checkSame(w)
	dst := v.words[:len(w.words)]
	for i, x := range w.words {
		dst[i] |= ^x
	}
	v.trim()
}

// Not sets v to its bitwise complement.
func (v *Vector) Not() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
}

// Equal reports whether v and w hold identical bits. Vectors of
// different lengths are never equal.
func (v *Vector) Equal(w *Vector) bool {
	if v.n != w.n {
		return false
	}
	ww := w.words[:len(v.words)]
	var diff uint64
	for i, x := range v.words {
		diff |= x ^ ww[i]
	}
	return diff == 0
}

// IsZero reports whether no bit is set.
func (v *Vector) IsZero() bool {
	for _, x := range v.words {
		if x != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, x := range v.words {
		c += bits.OnesCount64(x)
	}
	return c
}

// ForEach calls f for every set bit, in increasing index order.
func (v *Vector) ForEach(f func(i int)) {
	for wi, x := range v.words {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			f(wi*wordBits + b)
			x &= x - 1
		}
	}
}

// String renders the vector as a 0/1 string, bit 0 first — convenient
// in test failure messages.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
