package rtl

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"mlvfpga/internal/parpool"
)

// parser is a recursive-descent parser over a pre-lexed token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses Verilog-subset source text into a list of modules.
func Parse(src string) ([]*Module, error) {
	return ParseParallel(src, 1)
}

// ParseParallel parses like Parse but distributes per-module parsing over
// up to workers goroutines (workers <= 1 is strictly sequential). Lexing
// stays sequential; the token stream is then split at top-level
// module/endmodule boundaries — the subset has no nested modules — and the
// spans parse independently. The module list and any reported error are
// identical to the sequential parse.
func ParseParallel(src string, workers int) ([]*Module, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	spans, ok := moduleSpans(toks)
	if !ok || len(spans) < 2 {
		// Malformed top level (or nothing to fan out): the single-stream
		// parser produces the canonical error positions.
		return parseStream(toks)
	}
	return parpool.Map(context.Background(), workers, len(spans), func(_ context.Context, i int) (*Module, error) {
		// The stream from the module's first token on is exactly what the
		// sequential parser sees there, so the span needs no copy.
		p := &parser{toks: toks[spans[i]:]}
		return p.parseModule()
	})
}

// moduleSpans splits a token stream at its top-level modules, returning
// the index of each "module" token. It reports false when the stream does
// not look like a plain module sequence.
func moduleSpans(toks []token) ([]int, bool) {
	var spans []int
	i := 0
	for i < len(toks) && toks[i].kind != tokEOF {
		if !toks[i].is("module") {
			return nil, false
		}
		j := i + 1
		for j < len(toks) && !toks[j].is("endmodule") && toks[j].kind != tokEOF {
			j++
		}
		if j >= len(toks) || !toks[j].is("endmodule") {
			return nil, false
		}
		spans = append(spans, i)
		i = j + 1
	}
	return spans, true
}

// parseStream parses a whole token stream module by module.
func parseStream(toks []token) ([]*Module, error) {
	p := &parser{toks: toks}
	var mods []*Module
	for !p.at(tokEOF) {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	return mods, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) peek() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) accept(text string) bool {
	if p.cur().is(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errorf("expected %q, found %s", text, p.cur())
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) ident() (string, error) {
	if !p.at(tokIdent) {
		return "", p.errorf("expected identifier, found %s", p.cur())
	}
	name := p.cur().text
	p.pos++
	return name, nil
}

// parseModule parses one complete module ... endmodule.
func (p *parser) parseModule() (*Module, error) {
	srcLine := p.cur().line
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name, SrcLine: srcLine}

	// Optional parameter list: #(parameter N = 8, parameter M = 4)
	if p.accept("#") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		for {
			if !p.accept("parameter") {
				return nil, p.errorf("expected \"parameter\" in parameter port list, found %s", p.cur())
			}
			prm, err := p.parseParamDecl(false)
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, prm)
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}

	// Port list (ANSI style): (input [7:0] a, output reg q, ...)
	if p.accept("(") {
		if !p.accept(")") {
			for {
				ports, err := p.parsePortDecl()
				if err != nil {
					return nil, err
				}
				m.Ports = append(m.Ports, ports...)
				if p.accept(",") {
					continue
				}
				break
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}

	// Module items.
	for !p.cur().is("endmodule") {
		if p.at(tokEOF) {
			return nil, p.errorf("unexpected end of input inside module %q", m.Name)
		}
		if err := p.parseModuleItem(m); err != nil {
			return nil, err
		}
	}
	p.pos++ // consume endmodule
	return m, nil
}

// parseParamDecl parses NAME = expr after the parameter/localparam keyword.
func (p *parser) parseParamDecl(isLocal bool) (Param, error) {
	name, err := p.ident()
	if err != nil {
		return Param{}, err
	}
	if err := p.expect("="); err != nil {
		return Param{}, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return Param{}, err
	}
	return Param{Name: name, Default: e, IsLocal: isLocal}, nil
}

// parsePortDecl parses one port declaration group: direction, optional reg,
// optional range, then one or more names (a, b, c). All names share the
// declaration.
func (p *parser) parsePortDecl() ([]Port, error) {
	var dir Dir
	switch {
	case p.accept("input"):
		dir = Input
	case p.accept("output"):
		dir = Output
	case p.accept("inout"):
		dir = Inout
	default:
		return nil, p.errorf("expected port direction, found %s", p.cur())
	}
	isReg := p.accept("reg")
	p.accept("wire") // "input wire x" is legal; wire is the default
	rng, err := p.parseOptRange()
	if err != nil {
		return nil, err
	}
	var ports []Port
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ports = append(ports, Port{Name: name, Dir: dir, Range: rng, IsReg: isReg})
		// Multiple names within one decl group are separated by commas but a
		// comma may also start a whole new decl; only continue if the next
		// token after the comma is another identifier.
		if p.cur().is(",") && p.peek().kind == tokIdent {
			p.pos++ // consume comma, stay in group
			continue
		}
		break
	}
	return ports, nil
}

// parseOptRange parses [msb:lsb] if present.
func (p *parser) parseOptRange() (Range, error) {
	if !p.accept("[") {
		return Range{}, nil
	}
	msb, err := p.parseExpr()
	if err != nil {
		return Range{}, err
	}
	if err := p.expect(":"); err != nil {
		return Range{}, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return Range{}, err
	}
	if err := p.expect("]"); err != nil {
		return Range{}, err
	}
	return Range{Msb: msb, Lsb: lsb}, nil
}

// parseModuleItem parses one item in the module body.
func (p *parser) parseModuleItem(m *Module) error {
	switch {
	case p.accept("parameter"):
		prm, err := p.parseParamDecl(false)
		if err != nil {
			return err
		}
		m.Params = append(m.Params, prm)
		return p.expect(";")

	case p.accept("localparam"):
		prm, err := p.parseParamDecl(true)
		if err != nil {
			return err
		}
		m.Params = append(m.Params, prm)
		return p.expect(";")

	case p.cur().is("wire") || p.cur().is("reg"):
		isReg := p.cur().text == "reg"
		p.pos++
		rng, err := p.parseOptRange()
		if err != nil {
			return err
		}
		for {
			name, err := p.ident()
			if err != nil {
				return err
			}
			m.Nets = append(m.Nets, Net{Name: name, Range: rng, IsReg: isReg})
			if p.accept(",") {
				continue
			}
			break
		}
		return p.expect(";")

	case p.accept("assign"):
		lhs, err := p.parsePrimary()
		if err != nil {
			return err
		}
		if err := p.expect("="); err != nil {
			return err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return err
		}
		m.Assigns = append(m.Assigns, Assign{LHS: lhs, RHS: rhs})
		return p.expect(";")

	case p.accept("always"):
		alw, err := p.parseAlways()
		if err != nil {
			return err
		}
		m.Alwayses = append(m.Alwayses, alw)
		return nil

	case p.at(tokIdent):
		inst, err := p.parseInstance()
		if err != nil {
			return err
		}
		m.Instances = append(m.Instances, inst)
		return nil

	default:
		return p.errorf("unexpected %s in module body", p.cur())
	}
}

// parseAlways parses: always @(posedge clk) <stmt>
// where stmt is a nonblocking assignment, an if/else chain, or a begin/end
// block of those.
func (p *parser) parseAlways() (Always, error) {
	var a Always
	if err := p.expect("@"); err != nil {
		return a, err
	}
	if err := p.expect("("); err != nil {
		return a, err
	}
	switch {
	case p.accept("posedge"):
	case p.accept("negedge"):
		a.Negedge = true
	default:
		return a, p.errorf("expected posedge or negedge, found %s", p.cur())
	}
	clk, err := p.ident()
	if err != nil {
		return a, err
	}
	a.Clock = clk
	if err := p.expect(")"); err != nil {
		return a, err
	}
	body, err := p.parseSeqStmt(nil)
	if err != nil {
		return a, err
	}
	a.Body = body
	return a, nil
}

// parseSeqStmt parses one sequential statement under the given guard chain,
// returning the flattened nonblocking assignments.
func (p *parser) parseSeqStmt(guard []Expr) ([]SeqAssign, error) {
	switch {
	case p.accept("begin"):
		var out []SeqAssign
		for !p.accept("end") {
			if p.at(tokEOF) {
				return nil, p.errorf("unexpected end of input in begin block")
			}
			stmts, err := p.parseSeqStmt(guard)
			if err != nil {
				return nil, err
			}
			out = append(out, stmts...)
		}
		return out, nil

	case p.accept("if"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		thenGuard := append(append([]Expr{}, guard...), cond)
		out, err := p.parseSeqStmt(thenGuard)
		if err != nil {
			return nil, err
		}
		if p.accept("else") {
			elseGuard := append(append([]Expr{}, guard...), &Unary{Op: "!", X: cond})
			elseStmts, err := p.parseSeqStmt(elseGuard)
			if err != nil {
				return nil, err
			}
			out = append(out, elseStmts...)
		}
		return out, nil

	default:
		lhs, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expect("<="); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []SeqAssign{{LHS: lhs, RHS: rhs, Guard: guard}}, nil
	}
}

// parseInstance parses: modname [#(.P(v),...)] instname ( .port(expr), ... );
// Positional connections ( expr, expr ) are also accepted.
func (p *parser) parseInstance() (Instance, error) {
	var inst Instance
	modName, err := p.ident()
	if err != nil {
		return inst, err
	}
	inst.ModuleName = modName
	inst.Conns = map[string]Expr{}

	if p.accept("#") {
		if err := p.expect("("); err != nil {
			return inst, err
		}
		inst.Params = map[string]Expr{}
		for {
			if err := p.expect("."); err != nil {
				return inst, err
			}
			pname, err := p.ident()
			if err != nil {
				return inst, err
			}
			if err := p.expect("("); err != nil {
				return inst, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return inst, err
			}
			if err := p.expect(")"); err != nil {
				return inst, err
			}
			inst.Params[pname] = val
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return inst, err
		}
	}

	iname, err := p.ident()
	if err != nil {
		return inst, err
	}
	inst.Name = iname

	if err := p.expect("("); err != nil {
		return inst, err
	}
	if !p.accept(")") {
		positional := 0
		for {
			if p.accept(".") {
				pname, err := p.ident()
				if err != nil {
					return inst, err
				}
				if err := p.expect("("); err != nil {
					return inst, err
				}
				var val Expr
				if !p.cur().is(")") {
					val, err = p.parseExpr()
					if err != nil {
						return inst, err
					}
				}
				if err := p.expect(")"); err != nil {
					return inst, err
				}
				if _, dup := inst.Conns[pname]; dup {
					return inst, p.errorf("duplicate connection to port %q", pname)
				}
				inst.Conns[pname] = val
				inst.Order = append(inst.Order, pname)
			} else {
				val, err := p.parseExpr()
				if err != nil {
					return inst, err
				}
				key := positionalKey(positional)
				positional++
				inst.Conns[key] = val
				inst.Order = append(inst.Order, key)
			}
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return inst, err
		}
	}
	return inst, p.expect(";")
}

// positionalKey encodes a positional connection index as a reserved key that
// cannot collide with a legal port name.
func positionalKey(i int) string { return fmt.Sprintf("$pos%d", i) }

// isPositionalKey decodes positionalKey, returning the index.
func isPositionalKey(k string) (int, bool) {
	if !strings.HasPrefix(k, "$pos") {
		return 0, false
	}
	n, err := strconv.Atoi(k[len("$pos"):])
	if err != nil {
		return 0, false
	}
	return n, true
}

// Operator precedence, loosest first. The conditional operator is handled
// separately above this table.
var precedence = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

// parseExpr parses a full expression including ?:.
func (p *parser) parseExpr() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.accept("?") {
		thenE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		elseE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{If: cond, Then: thenE, Else: elseE}, nil
	}
	return cond, nil
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(precedence) {
		return p.parseUnary()
	}
	left, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range precedence[level] {
			if p.cur().is(op) {
				p.pos++
				right, err := p.parseBinary(level + 1)
				if err != nil {
					return nil, err
				}
				left = &Binary{Op: op, L: left, R: right}
				matched = true
				break
			}
		}
		if !matched {
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	for _, op := range []string{"~", "!", "-", "&", "|", "^"} {
		if p.cur().is(op) {
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: op, X: x}, nil
		}
	}
	return p.parsePrimary()
}

// parsePrimary parses identifiers (with optional index/slice), numbers,
// parenthesized expressions, concatenations and replications.
func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.at(tokIdent):
		name := p.cur().text
		p.pos++
		var e Expr = &Ident{Name: name}
		return p.parseSelects(e)

	case p.at(tokNumber):
		n, err := parseNumber(p.cur().text)
		if err != nil {
			t := p.cur()
			return nil, &SyntaxError{Line: t.line, Col: t.col, Msg: err.Error()}
		}
		p.pos++
		return n, nil

	case p.accept("("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return p.parseSelects(e)

	case p.accept("{"):
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// Replication: {N{x}}
		if p.accept("{") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("}"); err != nil {
				return nil, err
			}
			if err := p.expect("}"); err != nil {
				return nil, err
			}
			return &Repl{Count: first, X: x}, nil
		}
		parts := []Expr{first}
		for p.accept(",") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return &Concat{Parts: parts}, nil

	default:
		return nil, p.errorf("expected expression, found %s", p.cur())
	}
}

// parseSelects parses trailing [i] or [msb:lsb] selects.
func (p *parser) parseSelects(e Expr) (Expr, error) {
	for p.accept("[") {
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(":") {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &Slice{X: e, Msb: first, Lsb: lsb}
			continue
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		e = &Index{X: e, At: first}
	}
	return e, nil
}

// parseNumber decodes a numeric literal token: 42, 8'hFF, 4'b1010, 16'd9.
// x/z digits are treated as 0 (two-valued subset).
func parseNumber(text string) (*Number, error) {
	tick := strings.IndexByte(text, '\'')
	if tick < 0 {
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", text)
		}
		return &Number{Value: v}, nil
	}
	width := 32
	if tick > 0 {
		w, err := strconv.Atoi(text[:tick])
		if err != nil || w <= 0 || w > 64 {
			return nil, fmt.Errorf("bad width in %q", text)
		}
		width = w
	}
	if tick+1 >= len(text) {
		return nil, fmt.Errorf("truncated literal %q", text)
	}
	base := 10
	switch text[tick+1] {
	case 'b', 'B':
		base = 2
	case 'o', 'O':
		base = 8
	case 'd', 'D':
		base = 10
	case 'h', 'H':
		base = 16
	}
	digits := strings.Map(func(r rune) rune {
		switch r {
		case 'x', 'X', 'z', 'Z':
			return '0'
		case '_':
			return -1
		}
		return r
	}, text[tick+2:])
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		return nil, fmt.Errorf("bad digits in %q", text)
	}
	if width < 64 {
		v &= (uint64(1) << uint(width)) - 1
	}
	return &Number{Value: v, Width: width}, nil
}
