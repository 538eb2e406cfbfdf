package parser

import (
	"fmt"

	"pdce/internal/cfg"
	"pdce/internal/ir"
)

// ParseCFG reads the low-level flow-graph language:
//
//	graph "name"            // optional header
//	node 1 {
//	  y := a+b
//	  out(x+y)
//	}
//	node S4.5 synthetic {}  // optional 'synthetic' marker
//	edge s 1
//	edge 1 e
//
// Node labels are bare identifiers, integers, or quoted strings. The
// start and end nodes exist implicitly under the reserved labels "s"
// and "e" and may not carry statements. Statements inside a node body
// are separated by newlines or semicolons. The resulting graph is
// validated (cfg.Validate) before being returned.
func ParseCFG(src string) (*cfg.Graph, error) {
	p := cfgParser{t: newTokens(src)}
	return p.parse()
}

// MustParseCFG is ParseCFG that panics on error, for tests and
// embedded figure programs.
func MustParseCFG(src string) *cfg.Graph {
	g, err := ParseCFG(src)
	if err != nil {
		panic("parser: " + err.Error())
	}
	return g
}

type cfgParser struct {
	t tokens
	g *cfg.Graph

	body  []ir.Stmt // the node body being read, reused
	stmts []ir.Stmt // the slab node bodies are copied into
	edges []pendingEdge
}

// pendingEdge is an edge read but not yet wired: the labels of its
// endpoints and the offset of its source label.
type pendingEdge struct {
	from, to string
	pos      int
}

func (p *cfgParser) parse() (*cfg.Graph, error) {
	p.t.skipSemis()
	name := "G"
	if p.t.isKeyword("graph") {
		p.t.next()
		switch p.t.tok.Kind {
		case TokString, TokIdent, TokInt:
			name = p.t.tok.Text
			p.t.next()
		default:
			return nil, p.t.errf(p.t.tok, "expected graph name, found %s", p.t.tok.Kind)
		}
	}
	p.g = cfg.New(name)
	for {
		p.t.skipSemis()
		tok := &p.t.tok
		if tok.Kind == TokEOF {
			break
		}
		if tok.Kind != TokIdent {
			return nil, p.t.errf(*tok, "expected 'node' or 'edge', found %s %q", tok.Kind, tok.Text)
		}
		switch tok.Text {
		case "node":
			p.t.next()
			if err := p.parseNode(); err != nil {
				return nil, err
			}
		case "edge":
			p.t.next()
			pos := p.t.tok.Pos
			from, err := p.parseLabel()
			if err != nil {
				return nil, err
			}
			to, err := p.parseLabel()
			if err != nil {
				return nil, err
			}
			p.edges = append(p.edges, pendingEdge{from: from, to: to, pos: pos})
		default:
			return nil, p.t.errf(*tok, "expected 'node' or 'edge', found %q", tok.Text)
		}
	}
	if err := p.wire(); err != nil {
		return nil, err
	}
	if errs := cfg.Validate(p.g); len(errs) > 0 {
		return nil, fmt.Errorf("invalid graph %q: %s", name, errs[0])
	}
	return p.g, nil
}

// wire adds the pending edges in one cfg.(*Graph).AddEdges call. Its
// errors are those of adding the edges one at a time in source order:
// the first edge with an undeclared endpoint ends the list, and a
// duplicate before it is reported first.
func (p *cfgParser) wire() error {
	edges := make([]cfg.Edge, 0, len(p.edges))
	var undeclared error
	for _, e := range p.edges {
		from, ok := p.g.NodeByLabel(e.from)
		if !ok {
			undeclared = errorAt(p.t.src, e.pos, fmt.Sprintf("edge references undeclared node %q", e.from))
			break
		}
		to, ok := p.g.NodeByLabel(e.to)
		if !ok {
			undeclared = errorAt(p.t.src, e.pos, fmt.Sprintf("edge references undeclared node %q", e.to))
			break
		}
		edges = append(edges, cfg.Edge{From: from, To: to})
	}
	if i := p.g.AddEdges(edges); i >= 0 {
		e := p.edges[i]
		return errorAt(p.t.src, e.pos, fmt.Sprintf("duplicate edge %s -> %s", e.from, e.to))
	}
	return undeclared
}

// parseLabel reads a node label: identifier, integer, or quoted string.
func (p *cfgParser) parseLabel() (string, error) {
	tok := &p.t.tok
	switch tok.Kind {
	case TokIdent, TokInt, TokString:
		label := tok.Text
		p.t.next()
		return label, nil
	}
	return "", p.t.errf(*tok, "expected node label, found %s %q", tok.Kind, tok.Text)
}

func (p *cfgParser) parseNode() error {
	lpos := p.t.tok.Pos
	label, err := p.parseLabel()
	if err != nil {
		return err
	}
	synthetic := false
	if p.t.isKeyword("synthetic") {
		p.t.next()
		synthetic = true
	}
	if err := p.t.expect(TokLBrace); err != nil {
		return err
	}
	var node *cfg.Node
	switch label {
	case "s", "e":
		// The start and end blocks exist implicitly; allow the
		// (empty) redeclaration so Format output round-trips.
		node, _ = p.g.NodeByLabel(label)
	default:
		if _, dup := p.g.NodeByLabel(label); dup {
			return errorAt(p.t.src, lpos, fmt.Sprintf("duplicate node %q", label))
		}
		node = p.g.AddNode(label)
	}
	node.Synthetic = synthetic
	body := p.body[:0]
	for {
		p.t.skipSemis()
		if p.t.accept(TokRBrace) {
			break
		}
		if p.t.tok.Kind == TokEOF {
			return p.t.errf(p.t.tok, "unterminated node body for %q", label)
		}
		s, err := p.t.parseSimpleStmt()
		if err != nil {
			return err
		}
		if node == p.g.Start || node == p.g.End {
			return errorAt(p.t.src, lpos, fmt.Sprintf("node %q must be empty (paper start/end nodes carry skip)", label))
		}
		body = append(body, s)
	}
	p.body = body
	node.Stmts = p.carve(body)
	return nil
}

// carve copies a node body into the statement slab and returns its
// window there, capacity-capped at its own length so that a later
// append to one block's statements reallocates instead of writing into
// the next block's. A full slab is replaced by one twice its size; the
// windows already carved keep the old one.
func (p *cfgParser) carve(body []ir.Stmt) []ir.Stmt {
	k := len(body)
	if k == 0 {
		return nil
	}
	if cap(p.stmts)-len(p.stmts) < k {
		p.stmts = make([]ir.Stmt, 0, max(2*cap(p.stmts), k, 64))
	}
	i := len(p.stmts)
	p.stmts = append(p.stmts, body...)
	return p.stmts[i : i+k : i+k]
}
