package rtl

import (
	"fmt"
	"strings"
)

// tokKind enumerates lexical token kinds of the Verilog subset.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber // 42, 16'hBEEF, 4'b1010, 8'd255
	tokPunct  // ( ) [ ] { } ; , . : # = @ ? etc. and multi-char operators
	tokKeyword
)

// keywords of the supported subset.
var keywords = map[string]bool{
	"module": true, "endmodule": true,
	"input": true, "output": true, "inout": true,
	"wire": true, "reg": true,
	"assign": true, "always": true,
	"posedge": true, "negedge": true,
	"begin": true, "end": true,
	"if": true, "else": true,
	"parameter": true, "localparam": true,
}

// token is one lexical token: its text is src[begin:end]. An escaped
// identifier's span starts after its backslash. Line and column are not
// stored; position computes them from the offset when an error needs them.
type token struct {
	begin, end uint32
	kind       tokKind
}

// position returns the 1-based line and column of byte offset off in src.
func position(src string, off int) (line, col int) {
	line = 1 + strings.Count(src[:off], "\n")
	return line, off - strings.LastIndexByte(src[:off], '\n')
}

// SyntaxError reports a lexical or parse error with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
	off       int // byte offset of the position in the source
}

// syntaxError positions msg at byte offset off of src.
func syntaxError(src string, off int, msg string) *SyntaxError {
	line, col := position(src, off)
	return &SyntaxError{Line: line, Col: col, Msg: msg, off: off}
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("rtl: line %d:%d: %s", e.Line, e.Col, e.Msg)
}
