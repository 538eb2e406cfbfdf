package ir

import "encoding/binary"

// Pattern identifies an assignment pattern α ≡ x := t (Section 2 of the
// paper): the pair of a left-hand-side variable and a right-hand-side
// term, independent of where the assignment occurs. The delayability
// analysis of Table 2 allocates one bit per pattern.
//
// Pattern is a comparable value type (usable as a map key): the RHS is
// captured by its canonical Key string.
type Pattern struct {
	LHS Var
	RHS string // canonical Key() of the right-hand-side term
}

// PatternOf returns the assignment pattern of statement s, if s is an
// assignment.
func PatternOf(s Stmt) (Pattern, bool) {
	a, ok := s.(Assign)
	if !ok {
		return Pattern{}, false
	}
	return Pattern{LHS: a.LHS, RHS: a.RHS.Key()}, true
}

// String renders the pattern as "x := t".
func (p Pattern) String() string { return string(p.LHS) + " := " + p.RHS }

// Matches reports whether statement s is an occurrence of pattern p.
func (p Pattern) Matches(s Stmt) bool {
	q, ok := PatternOf(s)
	return ok && q == p
}

// Blocks reports whether executing instruction s blocks the sinking of
// an assignment pattern α = x := t past s (Definition 3.1 discussion):
// s blocks α if it modifies an operand of t, uses x, or modifies x.
//
// Note that an occurrence of α itself blocks α (it modifies x), which
// is why at most the last occurrence of a pattern in a basic block can
// be a sinking candidate (Section 5.3, Figure 13).
func (p Pattern) Blocks(s Stmt, rhsVars map[Var]bool) bool {
	// s modifies an operand of t, or modifies x itself.
	if d, ok := Def(s); ok {
		if rhsVars[d] || d == p.LHS {
			return true
		}
	}
	// s uses x.
	return UsesVarStmt(s, p.LHS)
}

// PatternTable assigns dense indices to the assignment patterns of a
// program and caches per-pattern operand sets. It is the bit-numbering
// universe for the delayability analysis.
//
// Lookups render the pattern's key into a buffer the table reuses, and
// operand sets are built on first use, so every method may mutate the
// table: it is not safe for concurrent use. Each optimization run
// builds its own table and uses it on one goroutine.
type PatternTable struct {
	patterns []Pattern
	rhsExpr  []Expr
	rhsVars  []map[Var]bool // nil until RHSVarsAt first asks
	index    map[string]int // keyed by appendLHS + the RHS key
	buf      []byte         // the key of the last lookup
}

// NewPatternTable returns an empty table with room for n patterns
// before it grows.
func NewPatternTable(n int) *PatternTable {
	return &PatternTable{
		patterns: make([]Pattern, 0, n),
		rhsExpr:  make([]Expr, 0, n),
		rhsVars:  make([]map[Var]bool, 0, n),
		index:    make(map[string]int, n),
	}
}

// appendLHS renders the LHS half of a pattern's index key into the
// table's buffer: the length of x, then x, so that no (LHS, RHS) pair
// renders like another. The caller appends the RHS key.
func (t *PatternTable) appendLHS(x Var) []byte {
	return append(binary.AppendUvarint(t.buf[:0], uint64(len(x))), x...)
}

// Add ensures the pattern of assignment a is in the table and returns
// its index.
func (t *PatternTable) Add(a Assign) int {
	buf := t.appendLHS(a.LHS)
	rhsAt := len(buf)
	t.buf = AppendKey(buf, a.RHS)
	if i, ok := t.index[string(t.buf)]; ok {
		return i
	}
	key := string(t.buf)
	i := len(t.patterns)
	t.patterns = append(t.patterns, Pattern{LHS: a.LHS, RHS: key[rhsAt:]})
	t.rhsExpr = append(t.rhsExpr, a.RHS)
	t.rhsVars = append(t.rhsVars, nil)
	t.index[key] = i
	return i
}

// Len returns the number of distinct patterns.
func (t *PatternTable) Len() int { return len(t.patterns) }

// Pattern returns the pattern with index i.
func (t *PatternTable) Pattern(i int) Pattern { return t.patterns[i] }

// RHSVarsAt returns the operand-variable set of pattern i, building it
// on the first call.
func (t *PatternTable) RHSVarsAt(i int) map[Var]bool {
	if t.rhsVars[i] == nil {
		t.rhsVars[i] = VarsOf(t.rhsExpr[i])
	}
	return t.rhsVars[i]
}

// RHSExprAt returns a representative right-hand-side expression of
// pattern i (all occurrences share the same term, so any occurrence's
// expression is representative).
func (t *PatternTable) RHSExprAt(i int) Expr { return t.rhsExpr[i] }

// Index returns the index of pattern p and whether it is present.
func (t *PatternTable) Index(p Pattern) (int, bool) {
	t.buf = append(t.appendLHS(p.LHS), p.RHS...)
	i, ok := t.index[string(t.buf)]
	return i, ok
}

// IndexOfStmt returns the pattern index of statement s, if s is an
// assignment whose pattern is in the table.
func (t *PatternTable) IndexOfStmt(s Stmt) (int, bool) {
	a, ok := s.(Assign)
	if !ok {
		return 0, false
	}
	t.buf = AppendKey(t.appendLHS(a.LHS), a.RHS)
	i, ok := t.index[string(t.buf)]
	return i, ok
}

// BlocksIdx reports whether instruction s blocks sinking of pattern i.
func (t *PatternTable) BlocksIdx(s Stmt, i int) bool {
	return t.patterns[i].Blocks(s, t.RHSVarsAt(i))
}

// MakeAssign materializes a fresh assignment statement for pattern i,
// used when the sinking transformation inserts an instance of a
// pattern at a block boundary.
func (t *PatternTable) MakeAssign(i int) Assign {
	return Assign{LHS: t.patterns[i].LHS, RHS: t.rhsExpr[i]}
}

// VarTable assigns dense indices to variables — the bit-numbering
// universe for the dead/faint variable analyses of Table 1.
type VarTable struct {
	vars  []Var
	index map[Var]int
}

// NewVarTable returns an empty table.
func NewVarTable() *VarTable {
	return &VarTable{index: make(map[Var]int)}
}

// Add ensures v is in the table and returns its index.
func (t *VarTable) Add(v Var) int {
	if i, ok := t.index[v]; ok {
		return i
	}
	i := len(t.vars)
	t.vars = append(t.vars, v)
	t.index[v] = i
	return i
}

// AddStmt registers every variable occurring in s (both sides).
func (t *VarTable) AddStmt(s Stmt) {
	if d, ok := Def(s); ok {
		t.Add(d)
	}
	Uses(s, func(v Var) { t.Add(v) })
}

// Len returns the number of variables.
func (t *VarTable) Len() int { return len(t.vars) }

// Var returns the variable with index i.
func (t *VarTable) Var(i int) Var { return t.vars[i] }

// Index returns the index of v and whether it is present.
func (t *VarTable) Index(v Var) (int, bool) {
	i, ok := t.index[v]
	return i, ok
}

// MustIndex returns the index of v, panicking if v is unknown. The
// analyses build their variable universe from the whole program before
// solving, so a miss is a bug.
func (t *VarTable) MustIndex(v Var) int {
	i, ok := t.index[v]
	if !ok {
		panic("ir: variable not in table: " + string(v))
	}
	return i
}
