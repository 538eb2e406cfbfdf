package parser

import (
	"fmt"

	"pdce/internal/cfg"
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
	p := &cfgParser{t: newTokens(src)}
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
	t *tokens
	g *cfg.Graph
}

func (p *cfgParser) parse() (*cfg.Graph, error) {
	p.t.skipSemis()
	name := "G"
	if tok := p.t.peek(); tok.Kind == TokIdent && tok.Text == "graph" {
		p.t.next()
		nameTok := p.t.next()
		switch nameTok.Kind {
		case TokString, TokIdent, TokInt:
			name = nameTok.Text
		default:
			return nil, p.t.errf(nameTok, "expected graph name, found %s", nameTok.Kind)
		}
	}
	p.g = cfg.New(name)
	type pendingEdge struct {
		from, to string
		tok      Token
	}
	var edges []pendingEdge
	for {
		p.t.skipSemis()
		tok := p.t.peek()
		if tok.Kind == TokEOF {
			break
		}
		if tok.Kind != TokIdent {
			return nil, p.t.errf(tok, "expected 'node' or 'edge', found %s %q", tok.Kind, tok.Text)
		}
		switch tok.Text {
		case "node":
			p.t.next()
			if err := p.parseNode(); err != nil {
				return nil, err
			}
		case "edge":
			p.t.next()
			from, ftok, err := p.parseLabel()
			if err != nil {
				return nil, err
			}
			to, _, err := p.parseLabel()
			if err != nil {
				return nil, err
			}
			edges = append(edges, pendingEdge{from: from, to: to, tok: ftok})
		default:
			return nil, p.t.errf(tok, "expected 'node' or 'edge', found %q", tok.Text)
		}
	}
	for _, e := range edges {
		from, ok := p.g.NodeByLabel(e.from)
		if !ok {
			return nil, p.t.errf(e.tok, "edge references undeclared node %q", e.from)
		}
		to, ok := p.g.NodeByLabel(e.to)
		if !ok {
			return nil, p.t.errf(e.tok, "edge references undeclared node %q", e.to)
		}
		if p.g.HasEdge(from, to) {
			return nil, p.t.errf(e.tok, "duplicate edge %s -> %s", e.from, e.to)
		}
		p.g.AddEdge(from, to)
	}
	if errs := cfg.Validate(p.g); len(errs) > 0 {
		return nil, fmt.Errorf("invalid graph %q: %s", name, errs[0])
	}
	return p.g, nil
}

// parseLabel reads a node label: identifier, integer, or quoted string.
func (p *cfgParser) parseLabel() (string, Token, error) {
	tok := p.t.next()
	switch tok.Kind {
	case TokIdent, TokInt, TokString:
		return tok.Text, tok, nil
	}
	return "", tok, p.t.errf(tok, "expected node label, found %s %q", tok.Kind, tok.Text)
}

func (p *cfgParser) parseNode() error {
	label, ltok, err := p.parseLabel()
	if err != nil {
		return err
	}
	synthetic := false
	if tok := p.t.peek(); tok.Kind == TokIdent && tok.Text == "synthetic" {
		p.t.next()
		synthetic = true
	}
	if _, err := p.t.expect(TokLBrace); err != nil {
		return err
	}
	var node *cfg.Node
	switch label {
	case "s", "e":
		// The start and end blocks exist implicitly; allow the
		// (empty) redeclaration so Format output round-trips.
		n, _ := p.g.NodeByLabel(label)
		node = n
	default:
		if _, dup := p.g.NodeByLabel(label); dup {
			return p.t.errf(ltok, "duplicate node %q", label)
		}
		node = p.g.AddNode(label)
	}
	node.Synthetic = synthetic
	for {
		p.t.skipSemis()
		if p.t.accept(TokRBrace) {
			break
		}
		if p.t.peek().Kind == TokEOF {
			return p.t.errf(p.t.peek(), "unterminated node body for %q", label)
		}
		s, err := p.t.parseSimpleStmt()
		if err != nil {
			return err
		}
		if label == "s" || label == "e" {
			return p.t.errf(ltok, "node %q must be empty (paper start/end nodes carry skip)", label)
		}
		node.Stmts = append(node.Stmts, s)
	}
	return nil
}
