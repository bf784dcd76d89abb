package rtl

import "unicode"

// lexer turns source text into tokens. It handles // and /* */ comments,
// identifiers (including escaped \name ), sized and unsized numeric
// literals, and one- and two-character punctuation.
type lexer struct {
	src string
	pos int
}

// twoCharOps are the multi-character operators the subset supports.
var twoCharOps = map[string]bool{
	"<<": true, ">>": true, "==": true, "!=": true,
	"<=": true, ">=": true, "&&": true, "||": true,
}

func (l *lexer) errorAt(off int, msg string) *SyntaxError { return syntaxError(l.src, off, msg) }

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

// skipSpaceAndComments consumes whitespace and comments; it returns an error
// for an unterminated block comment.
func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			start := l.pos
			l.pos += 2
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.pos += 2
					closed = true
					break
				}
				l.pos++
			}
			if !closed {
				return l.errorAt(start, "unterminated block comment")
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
	start := l.pos
	span := func(kind tokKind, begin int) (token, error) {
		return token{begin: uint32(begin), end: uint32(l.pos), kind: kind}, nil
	}
	if l.pos >= len(l.src) {
		return span(tokEOF, start)
	}
	c := l.peekByte()

	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentCont(l.peekByte()) {
			l.pos++
		}
		if keywords[l.src[start:l.pos]] {
			return span(tokKeyword, start)
		}
		return span(tokIdent, start)

	case c == '\\':
		// Escaped identifier: backslash to next whitespace.
		l.pos++
		for l.pos < len(l.src) {
			b := l.peekByte()
			if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
				break
			}
			l.pos++
		}
		if l.pos == start+1 {
			return token{}, l.errorAt(start, "empty escaped identifier")
		}
		return span(tokIdent, start+1)

	case unicode.IsDigit(rune(c)) || c == '\'':
		// Numeric literal: optional size, optional 'b/'h/'d/'o base, digits
		// with optional _ separators (parseNumber skips them).
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.peekByte())) {
			l.pos++
		}
		if l.pos < len(l.src) && l.peekByte() == '\'' {
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, l.errorAt(start, "truncated based literal")
			}
			base := l.src[l.pos]
			l.pos++
			switch base {
			case 'b', 'B', 'h', 'H', 'd', 'D', 'o', 'O':
			default:
				return token{}, l.errorAt(start, "bad number base '"+string(base)+"'")
			}
			nDigits := 0
			for l.pos < len(l.src) {
				b := l.peekByte()
				if b == '_' {
					l.pos++
					continue
				}
				if isHexDigit(b) {
					l.pos++
					nDigits++
					continue
				}
				break
			}
			if nDigits == 0 {
				return token{}, l.errorAt(start, "based literal has no digits")
			}
		}
		return span(tokNumber, start)

	default:
		// Punctuation; prefer two-character operators.
		if l.pos+1 < len(l.src) && twoCharOps[l.src[l.pos:l.pos+2]] {
			l.pos += 2
			return span(tokPunct, start)
		}
		switch c {
		case '(', ')', '[', ']', '{', '}', ';', ',', '.', ':', '#', '=', '@',
			'?', '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>':
			l.pos++
			return span(tokPunct, start)
		}
		return token{}, l.errorAt(start, "unexpected character '"+string(c)+"'")
	}
}

func isHexDigit(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F' ||
		b == 'x' || b == 'X' || b == 'z' || b == 'Z'
}

// lexAll tokenizes the whole input, returning the token stream. A
// counting pass sizes the stream, so it is one exact allocation.
func lexAll(src string) ([]token, error) {
	n, err := lexInto(nil, src)
	if err != nil {
		return nil, err
	}
	toks := make([]token, n)
	lexInto(toks, src) // the same source lexes the same
	return toks, nil
}

// lexInto lexes src, storing its tokens in dst while dst has room, and
// returns how many there are, the closing EOF included.
func lexInto(dst []token, src string) (int, error) {
	l := &lexer{src: src}
	for n := 0; ; n++ {
		t, err := l.next()
		if err != nil {
			return 0, err
		}
		if n < len(dst) {
			dst[n] = t
		}
		if t.kind == tokEOF {
			return n + 1, nil
		}
	}
}
