package parser

import (
	"fmt"

	"pdce/internal/cfg"
	"pdce/internal/ir"
)

// The structured WHILE-language:
//
//	x := a + b
//	out(x)
//	if x < 10 { ... } else { ... }   // else optional
//	if * { ... } else { ... }        // nondeterministic branch
//	while x > 0 { ... }
//	while * { ... }                  // nondeterministic loop
//
// Conditions written `*` lower to blocks without a Branch terminator —
// the paper's base model of nondeterministic branching. Concrete
// conditions lower to ir.Branch statements, whose operands are relevant
// uses (footnote 2 of the paper).

// SrcStmt is a node of the WHILE-language AST.
type SrcStmt interface{ isSrcStmt() }

// SrcSimple wraps a straight-line statement.
type SrcSimple struct{ S ir.Stmt }

// SrcIf is a two-way conditional; Cond == nil means nondeterministic.
type SrcIf struct {
	Cond ir.Expr
	Then []SrcStmt
	Else []SrcStmt
}

// SrcWhile is a pre-test loop; Cond == nil means nondeterministic.
type SrcWhile struct {
	Cond ir.Expr
	Body []SrcStmt
}

// SrcDoWhile is a post-test loop (`do { ... } while cond`); the body
// executes at least once. Cond == nil means nondeterministic. The
// distinction matters for the paper's algorithm: an assignment can
// only sink out of a loop whose body is guaranteed to have executed
// (Definition 3.2's justification condition) — the paper's Figure 3
// loop has exactly this shape.
type SrcDoWhile struct {
	Cond ir.Expr
	Body []SrcStmt
}

func (SrcSimple) isSrcStmt()  {}
func (SrcIf) isSrcStmt()      {}
func (SrcWhile) isSrcStmt()   {}
func (SrcDoWhile) isSrcStmt() {}

// ParseSource parses a WHILE-language program and lowers it to a flow
// graph named name. The graph is validated before being returned.
func ParseSource(name, src string) (*cfg.Graph, error) {
	stmts, err := ParseSourceAST(src)
	if err != nil {
		return nil, err
	}
	return Lower(name, stmts)
}

// MustParseSource is ParseSource that panics on error.
func MustParseSource(name, src string) *cfg.Graph {
	g, err := ParseSource(name, src)
	if err != nil {
		panic("parser: " + err.Error())
	}
	return g
}

// ParseSourceAST parses a WHILE-language program to its AST.
func ParseSourceAST(src string) ([]SrcStmt, error) {
	t := newTokens(src)
	return parseStmtList(&t, TokEOF)
}

// parseStmtList parses statements until the given closing token kind,
// which is consumed.
func parseStmtList(t *tokens, until TokKind) ([]SrcStmt, error) {
	var out []SrcStmt
	for {
		t.skipSemis()
		if t.tok.Kind == until {
			t.next()
			return out, nil
		}
		if t.tok.Kind == TokEOF {
			return nil, t.errf(t.tok, "unexpected end of input (missing %s?)", until)
		}
		s, err := parseSrcStmt(t)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func parseSrcStmt(t *tokens) (SrcStmt, error) {
	if t.tok.Kind == TokIdent {
		switch t.tok.Text {
		case "if":
			t.next()
			return parseIf(t)
		case "while":
			t.next()
			return parseWhile(t)
		case "do":
			t.next()
			return parseDoWhile(t)
		case "branch":
			return nil, t.errf(t.tok, "branch(...) is not a source statement; use if/while")
		}
	}
	s, err := t.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	return SrcSimple{S: s}, nil
}

// parseCond parses a condition: `*` for nondeterministic (returns nil)
// or an expression.
func parseCond(t *tokens) (ir.Expr, error) {
	if t.accept(TokStar) {
		return nil, nil
	}
	return t.parseExpr()
}

func parseIf(t *tokens) (SrcStmt, error) {
	cond, err := parseCond(t)
	if err != nil {
		return nil, err
	}
	if err := t.expect(TokLBrace); err != nil {
		return nil, err
	}
	thenStmts, err := parseStmtList(t, TokRBrace)
	if err != nil {
		return nil, err
	}
	var elseStmts []SrcStmt
	t.skipSemis()
	if t.isKeyword("else") {
		t.next()
		if err := t.expect(TokLBrace); err != nil {
			return nil, err
		}
		elseStmts, err = parseStmtList(t, TokRBrace)
		if err != nil {
			return nil, err
		}
	}
	return SrcIf{Cond: cond, Then: thenStmts, Else: elseStmts}, nil
}

func parseWhile(t *tokens) (SrcStmt, error) {
	cond, err := parseCond(t)
	if err != nil {
		return nil, err
	}
	if err := t.expect(TokLBrace); err != nil {
		return nil, err
	}
	body, err := parseStmtList(t, TokRBrace)
	if err != nil {
		return nil, err
	}
	return SrcWhile{Cond: cond, Body: body}, nil
}

func parseDoWhile(t *tokens) (SrcStmt, error) {
	if err := t.expect(TokLBrace); err != nil {
		return nil, err
	}
	body, err := parseStmtList(t, TokRBrace)
	if err != nil {
		return nil, err
	}
	t.skipSemis()
	if !t.isKeyword("while") {
		return nil, t.errf(t.tok, "expected 'while' after do-body, found %q", t.tok.Text)
	}
	t.next()
	cond, err := parseCond(t)
	if err != nil {
		return nil, err
	}
	return SrcDoWhile{Cond: cond, Body: body}, nil
}

// Lower converts a WHILE-language AST to a flow graph. Every
// straight-line run of simple statements becomes one basic block;
// conditionals and loops introduce the usual diamond and header/body
// shapes. The first successor of a conditional block is the
// branch-taken (then/body) target.
func Lower(name string, stmts []SrcStmt) (*cfg.Graph, error) {
	lw := &lowerer{g: cfg.New(name)}
	entry := lw.newBlock()
	lw.g.AddEdge(lw.g.Start, entry)
	exit := lw.lowerList(stmts, entry)
	lw.g.AddEdge(exit, lw.g.End)
	if errs := cfg.Validate(lw.g); len(errs) > 0 {
		return nil, fmt.Errorf("lowering produced invalid graph: %s", errs[0])
	}
	return lw.g, nil
}

type lowerer struct {
	g   *cfg.Graph
	seq int
}

func (lw *lowerer) newBlock() *cfg.Node {
	lw.seq++
	return lw.g.AddNode(fmt.Sprintf("b%d", lw.seq))
}

// lowerList lowers stmts starting in block cur and returns the block
// where control continues afterwards.
func (lw *lowerer) lowerList(stmts []SrcStmt, cur *cfg.Node) *cfg.Node {
	for _, s := range stmts {
		switch st := s.(type) {
		case SrcSimple:
			cur.Stmts = append(cur.Stmts, st.S)
		case SrcIf:
			cur = lw.lowerIf(st, cur)
		case SrcWhile:
			cur = lw.lowerWhile(st, cur)
		case SrcDoWhile:
			cur = lw.lowerDoWhile(st, cur)
		}
	}
	return cur
}

func (lw *lowerer) lowerIf(st SrcIf, cur *cfg.Node) *cfg.Node {
	if st.Cond != nil {
		cur.Stmts = append(cur.Stmts, ir.Branch{Cond: st.Cond})
	}
	thenEntry := lw.newBlock()
	elseEntry := lw.newBlock()
	join := lw.newBlock()
	lw.g.AddEdge(cur, thenEntry) // first successor: branch taken
	lw.g.AddEdge(cur, elseEntry)
	thenExit := lw.lowerList(st.Then, thenEntry)
	elseExit := lw.lowerList(st.Else, elseEntry)
	lw.g.AddEdge(thenExit, join)
	lw.g.AddEdge(elseExit, join)
	return join
}

func (lw *lowerer) lowerWhile(st SrcWhile, cur *cfg.Node) *cfg.Node {
	// A dedicated header keeps the loop back edge non-critical even
	// when cur already branches.
	header := lw.newBlock()
	lw.g.AddEdge(cur, header)
	if st.Cond != nil {
		header.Stmts = append(header.Stmts, ir.Branch{Cond: st.Cond})
	}
	bodyEntry := lw.newBlock()
	exit := lw.newBlock()
	lw.g.AddEdge(header, bodyEntry) // first successor: loop taken
	lw.g.AddEdge(header, exit)
	bodyExit := lw.lowerList(st.Body, bodyEntry)
	// A `while` whose body ends by re-entering the same header via
	// another construct would need latching; the body exit always
	// latches back to the header here.
	lw.g.AddEdge(bodyExit, header)
	return exit
}

func (lw *lowerer) lowerDoWhile(st SrcDoWhile, cur *cfg.Node) *cfg.Node {
	bodyEntry := lw.newBlock()
	lw.g.AddEdge(cur, bodyEntry)
	bodyExit := lw.lowerList(st.Body, bodyEntry)
	// Dedicated latch holding the post-test; first successor is the
	// back edge (loop taken).
	latch := lw.newBlock()
	if st.Cond != nil {
		latch.Stmts = append(latch.Stmts, ir.Branch{Cond: st.Cond})
	}
	exit := lw.newBlock()
	lw.g.AddEdge(bodyExit, latch)
	lw.g.AddEdge(latch, bodyEntry)
	lw.g.AddEdge(latch, exit)
	return exit
}
