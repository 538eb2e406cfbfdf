// Package parser provides the two textual front ends of the
// repository:
//
//   - ParseCFG reads the low-level flow-graph language (explicit nodes
//     and edges) that cfg.(*Graph).Format emits, capable of expressing
//     arbitrary — including irreducible — branching structure, as the
//     paper's Figure 5 requires.
//   - ParseSource reads a small structured WHILE-language (assignments,
//     out, if/else, while, nondeterministic conditions written `*`) and
//     lowers it to a flow graph.
//
// Both share one lexer and one expression grammar.
package parser

import (
	"fmt"
	"strconv"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokString
	TokAssign // :=
	TokLBrace // {
	TokRBrace // }
	TokLParen // (
	TokRParen // )
	TokOp     // + - * / % == != < <= > >=
	TokStar   // * when used as nondeterministic condition
	TokSemi   // statement separator: ';' or newline(s)
	TokComma
	TokError // a lexical error; Text holds its message
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokInt:
		return "integer"
	case TokString:
		return "string"
	case TokAssign:
		return "':='"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokOp:
		return "operator"
	case TokStar:
		return "'*'"
	case TokSemi:
		return "separator"
	case TokComma:
		return "','"
	}
	return "unknown token"
}

// Token is a lexed token with its source position. Text is a slice of
// the source, except for a string literal, whose Text is its decoded
// value, and an error token, whose Text is the error message.
type Token struct {
	Kind TokKind
	Text string
	Int  int64 // valid when Kind == TokInt
	Line int
	Col  int
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer reads src one token per scan. Newlines and semicolons become
// TokSemi, one token per run. Comments run from '//' or '#' to end of
// line.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// errorf returns an error token at the current position.
func (l *lexer) errorf(format string, args ...any) Token {
	return Token{Kind: TokError, Text: fmt.Sprintf(format, args...), Line: l.line, Col: l.col}
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// acceptByte consumes the next byte if it is c.
func (l *lexer) acceptByte(c byte) bool {
	if l.pos < len(l.src) && l.src[l.pos] == c {
		l.advance()
		return true
	}
	return false
}

// skipSpace skips horizontal whitespace and comments.
func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == ' ' || c == '\t' || c == '\r':
			l.advance()
		case c == '#' || c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// scan returns the next token. A lexical error is a TokError token at
// the position where scanning stopped.
func (l *lexer) scan() Token {
	l.skipSpace()
	if l.pos == len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col}
	}
	tok := Token{Line: l.line, Col: l.col}
	start := l.pos
	switch c := l.advance(); {
	case c == '\n' || c == ';':
		tok.Kind, tok.Text = TokSemi, l.src[start:l.pos]
		for l.skipSpace(); l.pos < len(l.src) && (l.src[l.pos] == '\n' || l.src[l.pos] == ';'); l.skipSpace() {
			l.advance() // merge separator runs
		}
		return tok
	case c == '{':
		tok.Kind = TokLBrace
	case c == '}':
		tok.Kind = TokRBrace
	case c == '(':
		tok.Kind = TokLParen
	case c == ')':
		tok.Kind = TokRParen
	case c == ',':
		tok.Kind = TokComma
	case c == ':':
		if !l.acceptByte('=') {
			return l.errorf("unexpected ':' (expected ':=')")
		}
		tok.Kind = TokAssign
	case c == '*':
		tok.Kind = TokStar
	case c == '+' || c == '-' || c == '/' || c == '%':
		tok.Kind = TokOp
	case c == '=' || c == '!':
		if !l.acceptByte('=') {
			return l.errorf("unexpected %q (expected %q)", string(c), string(c)+"=")
		}
		tok.Kind = TokOp
	case c == '<' || c == '>':
		l.acceptByte('=')
		tok.Kind = TokOp
	case c == '"':
		return l.scanString(tok)
	case isDigit(c):
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.advance()
		}
		v, err := strconv.ParseInt(l.src[start:l.pos], 10, 64)
		if err != nil {
			return l.errorf("integer literal %q out of range", l.src[start:l.pos])
		}
		tok.Kind, tok.Int = TokInt, v
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
			l.advance()
		}
		tok.Kind = TokIdent
	default:
		return l.errorf("unexpected character %q", string(c))
	}
	tok.Text = l.src[start:l.pos]
	return tok
}

// scanString reads a string literal whose opening quote scan has
// consumed. The value is a slice of the source unless the literal
// holds an escape.
func (l *lexer) scanString(tok Token) Token {
	start := l.pos
	var val []byte // the decoded value, from the first escape on
	for {
		if l.pos == len(l.src) || l.src[l.pos] == '\n' {
			return l.errorf("unterminated string literal")
		}
		switch c := l.advance(); c {
		case '"':
			tok.Kind, tok.Text = TokString, l.src[start:l.pos-1]
			if val != nil {
				tok.Text = string(val)
			}
			return tok
		case '\\':
			if l.pos == len(l.src) {
				return l.errorf("unterminated escape in string literal")
			}
			if val == nil {
				val = []byte(l.src[start : l.pos-1])
			}
			switch esc := l.advance(); esc {
			case '"', '\\':
				val = append(val, esc)
			case 'n':
				val = append(val, '\n')
			default:
				return l.errorf("unknown escape \\%c", esc)
			}
		default:
			if val != nil {
				val = append(val, c)
			}
		}
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '.' }
