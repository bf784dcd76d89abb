package rtl

import (
	"strings"
	"unicode"
)

// lexer turns source text into tokens. It handles // and /* */ comments,
// identifiers (including escaped \name ), sized and unsized numeric
// literals, and one- and two-character punctuation.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// twoCharOps are the multi-character operators the subset supports.
var twoCharOps = map[string]bool{
	"<<": true, ">>": true, "==": true, "!=": true,
	"<=": true, ">=": true, "&&": true, "||": true,
}

func (l *lexer) errorf(msg string) *SyntaxError {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: msg}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
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

// skipSpaceAndComments consumes whitespace and comments; it returns an error
// for an unterminated block comment.
func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			start := *l
			l.advance()
			l.advance()
			closed := false
			for l.pos+1 < len(l.src)+1 && l.pos < len(l.src) {
				if l.peekByte() == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return start.errorf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	startLine, startCol, start := l.line, l.col, l.pos
	c := l.peekByte()

	// Token texts are substrings of src, not copies.
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentCont(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: startLine, col: startCol}, nil

	case c == '\\':
		// Escaped identifier: backslash to next whitespace.
		l.advance()
		for l.pos < len(l.src) {
			b := l.peekByte()
			if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
				break
			}
			l.advance()
		}
		if l.pos == start+1 {
			return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: "empty escaped identifier"}
		}
		return token{kind: tokIdent, text: l.src[start+1 : l.pos], line: startLine, col: startCol}, nil

	case unicode.IsDigit(rune(c)) || c == '\'':
		// Numeric literal: optional size, optional 'b/'h/'d/'o base, digits.
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.peekByte())) {
			l.advance()
		}
		if l.pos < len(l.src) && l.peekByte() == '\'' {
			l.advance()
			if l.pos >= len(l.src) {
				return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: "truncated based literal"}
			}
			base := l.advance()
			switch base {
			case 'b', 'B', 'h', 'H', 'd', 'D', 'o', 'O':
			default:
				return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: "bad number base '" + string(base) + "'"}
			}
			nDigits := 0
			for l.pos < len(l.src) {
				b := l.peekByte()
				if b == '_' {
					l.advance()
					continue
				}
				if isHexDigit(b) {
					l.advance()
					nDigits++
					continue
				}
				break
			}
			if nDigits == 0 {
				return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: "based literal has no digits"}
			}
		}
		// Digit separators are dropped; only a literal that has one is copied.
		text := strings.ReplaceAll(l.src[start:l.pos], "_", "")
		return token{kind: tokNumber, text: text, line: startLine, col: startCol}, nil

	default:
		// Punctuation; prefer two-character operators.
		if l.pos+1 < len(l.src) {
			two := l.src[l.pos : l.pos+2]
			if twoCharOps[two] {
				l.advance()
				l.advance()
				return token{kind: tokPunct, text: two, line: startLine, col: startCol}, nil
			}
		}
		switch c {
		case '(', ')', '[', ']', '{', '}', ';', ',', '.', ':', '#', '=', '@',
			'?', '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>':
			l.advance()
			return token{kind: tokPunct, text: l.src[start:l.pos], line: startLine, col: startCol}, nil
		}
		return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: "unexpected character '" + string(c) + "'"}
	}
}

func isHexDigit(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F' ||
		b == 'x' || b == 'X' || b == 'z' || b == 'Z'
}

// lexAll tokenizes the whole input, returning the token stream.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	// Generated RTL runs about 3.4 bytes per token: one allocation covers it.
	toks := make([]token, 0, len(src)/3+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
