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
	"math"
	"strings"

	"pdce/internal/ir"
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

// Token is a lexed token. Text is a slice of the source, except for a
// string literal, whose Text is its decoded value, and an error token,
// whose Text is the error message. Pos is the byte offset of the
// token's first byte, or for an error token the offset where scanning
// stopped; line and column are counted only when an Error is built.
type Token struct {
	Kind TokKind
	Text string
	Int  int64 // valid when Kind == TokInt
	Pos  int
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// errorAt returns msg as an Error at byte offset pos of src. Lines
// are counted by '\n' and columns in bytes, both from 1.
func errorAt(src string, pos int, msg string) *Error {
	line, col := position(src, pos)
	return &Error{Line: line, Col: col, Msg: msg}
}

// position returns the line and column of byte offset pos of src.
func position(src string, pos int) (line, col int) {
	before := src[:pos]
	return 1 + strings.Count(before, "\n"), pos - strings.LastIndexByte(before, '\n')
}

// Byte classes: the class of token a byte can start. scan dispatches
// on it, identifiers first, as they are the commonest token.
const (
	clsBad    uint8 = iota // no token starts with this byte
	clsIdent               // a letter or '_'
	clsDigit               // an integer literal
	clsSep                 // '\n' or ';'
	clsPunct               // a token of its own: { } ( ) , * + - %
	clsBlank               // ' ', '\t' or '\r'
	clsSlash               // '/': an operator, or with a second '/' a comment
	clsHash                // '#': a comment
	clsColon               // ':' of ':='
	clsEqBang              // '=' of '==' or '!' of '!='
	clsAngle               // '<' or '>', either followed by an optional '='
	clsQuote               // '"': a string literal
)

var (
	byteClass [256]uint8
	identByte [256]bool // a byte an identifier continues with
	punct     = [256]TokKind{
		'{': TokLBrace, '}': TokRBrace, '(': TokLParen, ')': TokRParen,
		',': TokComma, '*': TokStar, '+': TokOp, '-': TokOp, '%': TokOp,
	}
)

func init() {
	for i := range byteClass {
		c := byte(i)
		switch {
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			byteClass[c] = clsIdent
		case c >= '0' && c <= '9':
			byteClass[c] = clsDigit
		case c == '\n' || c == ';':
			byteClass[c] = clsSep
		case punct[c] != TokEOF:
			byteClass[c] = clsPunct
		case c == ' ' || c == '\t' || c == '\r':
			byteClass[c] = clsBlank
		case c == '/':
			byteClass[c] = clsSlash
		case c == '#':
			byteClass[c] = clsHash
		case c == ':':
			byteClass[c] = clsColon
		case c == '=' || c == '!':
			byteClass[c] = clsEqBang
		case c == '<' || c == '>':
			byteClass[c] = clsAngle
		case c == '"':
			byteClass[c] = clsQuote
		}
		identByte[c] = byteClass[c] == clsIdent || byteClass[c] == clsDigit || c == '.'
	}
}

// tokens is the cursor both parsers read: the source, the offset where
// the next scan starts, and one token of lookahead, which scan
// overwrites in place. The parsers hold it by value, so it lives on
// their stack. Newlines and semicolons become TokSemi, one token per
// run. Comments run from '//' or '#' to end of line. The stream stops
// at end of input or at a lexical error. No grammar rule accepts an
// error token, so the first error in the source, lexical or syntactic,
// is the one reported.
type tokens struct {
	src string
	pos int
	tok Token // the next token

	// vars boxes each distinct identifier once per parse: expressions
	// are immutable, so every occurrence shares one ir.VarRef.
	vars map[string]ir.Expr
}

func newTokens(src string) tokens {
	t := tokens{src: src}
	t.scan()
	return t
}

// next consumes the lookahead token. The stream stays at end of input
// or at a lexical error.
func (t *tokens) next() {
	if t.tok.Kind != TokEOF && t.tok.Kind != TokError {
		t.scan()
	}
}

// errorf makes the lookahead a lexical error at offset pos.
func (t *tokens) errorf(pos int, format string, args ...any) {
	t.tok = Token{Kind: TokError, Text: fmt.Sprintf(format, args...), Pos: pos}
}

// skipBlank returns the offset of the first byte at or after pos that
// is not horizontal whitespace or part of a comment.
func skipBlank(src string, pos int) int {
	for pos < len(src) {
		switch byteClass[src[pos]] {
		case clsBlank:
			pos++
			continue
		case clsSlash:
			if pos+1 == len(src) || src[pos+1] != '/' {
				return pos
			}
		case clsHash:
		default:
			return pos
		}
		if i := strings.IndexByte(src[pos:], '\n'); i >= 0 {
			pos += i
		} else {
			pos = len(src)
		}
	}
	return pos
}

// scan reads the token at t.pos into t.tok.
func (t *tokens) scan() {
	src := t.src
	pos := skipBlank(src, t.pos)
	if pos == len(src) {
		t.tok, t.pos = Token{Kind: TokEOF, Pos: pos}, pos
		return
	}
	c := src[pos]
	end := pos + 1
	kind := TokOp // unless a case below says otherwise
	switch byteClass[c] {
	case clsIdent:
		for end < len(src) && identByte[src[end]] {
			end++
		}
		kind = TokIdent
	case clsDigit:
		v := int64(c - '0')
		over := false
		for ; end < len(src) && byteClass[src[end]] == clsDigit; end++ {
			d := int64(src[end] - '0')
			over = over || v > (math.MaxInt64-d)/10
			v = v*10 + d
		}
		if over {
			t.errorf(end, "integer literal %q out of range", src[pos:end])
			return
		}
		t.tok, t.pos = Token{Kind: TokInt, Text: src[pos:end], Int: v, Pos: pos}, end
		return
	case clsSep:
		// One token per run of separators and the blanks and comments
		// between them; its text is the first separator.
		next := skipBlank(src, end)
		for next < len(src) && byteClass[src[next]] == clsSep {
			next = skipBlank(src, next+1)
		}
		t.tok, t.pos = Token{Kind: TokSemi, Text: src[pos:end], Pos: pos}, next
		return
	case clsPunct:
		kind = punct[c]
	case clsSlash:
		// Division: skipBlank has taken a '//' comment.
	case clsColon:
		if end == len(src) || src[end] != '=' {
			t.errorf(end, "unexpected ':' (expected ':=')")
			return
		}
		kind, end = TokAssign, end+1
	case clsEqBang:
		if end == len(src) || src[end] != '=' {
			t.errorf(end, "unexpected %q (expected %q)", string(c), string(c)+"=")
			return
		}
		end++
	case clsAngle:
		if end < len(src) && src[end] == '=' {
			end++
		}
	case clsQuote:
		t.scanString(pos)
		return
	default:
		t.errorf(end, "unexpected character %q", string(c))
		return
	}
	t.tok, t.pos = Token{Kind: kind, Text: src[pos:end], Pos: pos}, end
}

// scanString reads the string literal whose opening quote is at
// offset quote. The value is a slice of the source unless the literal
// holds an escape.
func (t *tokens) scanString(quote int) {
	src := t.src
	start := quote + 1
	var val []byte // the decoded value, from the first escape on
	for pos := start; ; {
		if pos == len(src) || src[pos] == '\n' {
			t.errorf(pos, "unterminated string literal")
			return
		}
		c := src[pos]
		pos++
		switch c {
		case '"':
			text := src[start : pos-1]
			if val != nil {
				text = string(val)
			}
			t.tok, t.pos = Token{Kind: TokString, Text: text, Pos: quote}, pos
			return
		case '\\':
			if pos == len(src) {
				t.errorf(pos, "unterminated escape in string literal")
				return
			}
			if val == nil {
				val = []byte(src[start : pos-1])
			}
			esc := src[pos]
			pos++
			switch esc {
			case '"', '\\':
				val = append(val, esc)
			case 'n':
				val = append(val, '\n')
			default:
				t.errorf(pos, "unknown escape \\%c", esc)
				return
			}
		default:
			if val != nil {
				val = append(val, c)
			}
		}
	}
}
