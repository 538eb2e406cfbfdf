package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Errorf("Len() = %d, want %d", v.Len(), n)
		}
		if !v.IsZero() {
			t.Errorf("New(%d) not zero", n)
		}
		if v.Count() != 0 {
			t.Errorf("New(%d).Count() = %d", n, v.Count())
		}
	}
}

func TestRowsAreZeroAndIndependent(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		rows := Rows(5, n)
		if len(rows) != 5 {
			t.Fatalf("Rows(5, %d) returned %d rows", n, len(rows))
		}
		for _, v := range rows {
			if v.Len() != n || !v.IsZero() {
				t.Fatalf("Rows(5, %d): row of length %d, zero %v", n, v.Len(), v.IsZero())
			}
		}
		// Writing one row, all-ones included, must not disturb its
		// slab neighbours.
		for i, v := range rows {
			v.SetAll()
			for j, w := range rows {
				want := 0
				if j <= i {
					want = n
				}
				if w.Count() != want {
					t.Fatalf("n=%d: row %d has %d bits after filling rows 0..%d, want %d", n, j, w.Count(), i, want)
				}
			}
		}
	}
	if rows := Rows(0, 64); len(rows) != 0 {
		t.Fatalf("Rows(0, 64) returned %d rows", len(rows))
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Errorf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(64)
	for _, i := range []int{-1, 64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(64), New(65)
	defer func() {
		if recover() == nil {
			t.Fatal("And on mismatched lengths did not panic")
		}
	}()
	a.And(b)
}

func TestSetAllTrimsTail(t *testing.T) {
	v := NewAllOnes(70)
	if v.Count() != 70 {
		t.Fatalf("NewAllOnes(70).Count() = %d", v.Count())
	}
	// Complement of all-ones must be zero even in the partial word.
	v.Not()
	if !v.IsZero() {
		t.Fatalf("Not(all-ones) not zero: %s", v)
	}
}

func TestNotInvolution(t *testing.T) {
	f := func(bits []bool) bool {
		v := fromBools(bits)
		w := v.Copy()
		w.Not()
		w.Not()
		return v.Equal(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fromBools(bits []bool) *Vector {
	v := New(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i)
		}
	}
	return v
}

func TestDeMorgan(t *testing.T) {
	f := func(a, b []bool) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		va, vb := fromBools(a[:n]), fromBools(b[:n])
		// ¬(a ∧ b) == ¬a ∨ ¬b
		left := va.Copy()
		left.And(vb)
		left.Not()
		na, nb := va.Copy(), vb.Copy()
		na.Not()
		nb.Not()
		na.Or(nb)
		return left.Equal(na)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAndNotEquivalence(t *testing.T) {
	f := func(a, b []bool) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		va, vb := fromBools(a[:n]), fromBools(b[:n])
		// a &^ b == a ∧ ¬b
		x := va.Copy()
		x.AndNot(vb)
		nb := vb.Copy()
		nb.Not()
		y := va.Copy()
		y.And(nb)
		return x.Equal(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChangedReporting(t *testing.T) {
	a := New(100)
	b := New(100)
	b.Set(42)
	if a.Or(b) != true {
		t.Error("Or that sets a bit reported no change")
	}
	if a.Or(b) != false {
		t.Error("idempotent Or reported change")
	}
	if a.And(b) != false {
		t.Error("And with superset reported change")
	}
	c := New(100)
	if a.And(c) != true {
		t.Error("And that clears a bit reported no change")
	}
}

// TestForEachAndIndices: ForEach visits exactly the set indices, in
// strictly increasing order.
func TestForEachAndIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		v := New(n)
		want := map[int]bool{}
		for k := 0; k < n/3; k++ {
			i := rng.Intn(n)
			v.Set(i)
			want[i] = true
		}
		var got []int
		v.ForEach(func(i int) { got = append(got, i) })
		if len(got) != len(want) {
			t.Fatalf("ForEach visited %d indices, want %d", len(got), len(want))
		}
		prev := -1
		for _, i := range got {
			if !want[i] {
				t.Fatalf("unexpected index %d", i)
			}
			if i <= prev {
				t.Fatalf("indices not strictly increasing: %v", got)
			}
			prev = i
		}
	}
}

func TestCopyIndependence(t *testing.T) {
	a := New(64)
	a.Set(5)
	b := a.Copy()
	b.Set(6)
	if a.Get(6) {
		t.Error("Copy shares storage with original")
	}
	if !b.Get(5) {
		t.Error("Copy lost original bit")
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(64), New(64)
	b.Set(9)
	a.CopyFrom(b)
	if !a.Get(9) {
		t.Error("CopyFrom did not copy")
	}
	b.Clear(9)
	if !a.Get(9) {
		t.Error("CopyFrom aliases source")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Error("vectors of different lengths compared equal")
	}
}

func TestString(t *testing.T) {
	v := New(5)
	v.Set(0)
	v.Set(3)
	if got := v.String(); got != "10010" {
		t.Errorf("String() = %q, want 10010", got)
	}
}

func TestCountMatchesForEach(t *testing.T) {
	f := func(bits []bool) bool {
		v := fromBools(bits)
		n := 0
		v.ForEach(func(int) { n++ })
		return n == v.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
