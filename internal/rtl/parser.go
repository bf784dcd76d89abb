package rtl

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over a pre-lexed token stream.
// Each module's leaf nodes (identifiers, numbers, unary and binary
// operators, selects), its sequential assignments and its instances'
// connection orders are carved from slabs reserve sizes from the module's
// tokens, so a module's AST costs a handful of allocations, not one per
// node.
type parser struct {
	src  string
	toks []token
	pos  int

	idents   slab[Ident]
	numbers  slab[Number]
	unaries  slab[Unary]
	binaries slab[Binary]
	indexes  slab[Index]
	slices   slab[Slice]
	seqs     []SeqAssign  // backing of the module's Always bodies
	order    slab[string] // backing of the module's Instance.Order lists
}

// slab hands out elements of one backing array. reserve sizes it from an
// upper bound on what the module needs; a short count only costs a fresh
// array.
type slab[T any] []T

func (s *slab[T]) next() *T {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, cap(*s)+8)
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// take returns an empty slice with room for exactly n elements.
func (s *slab[T]) take(n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(n, cap(*s)))
	}
	l := len(*s)
	*s = (*s)[:l+n]
	return (*s)[l : l : l+n]
}

// Parse parses Verilog-subset source text into a list of modules.
func Parse(src string) ([]*Module, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
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

// text is the token's source text.
func (p *parser) text(t token) string { return p.src[t.begin:t.end] }

// is reports whether the token is the given punctuation or keyword text.
func (p *parser) is(t token, text string) bool {
	return (t.kind == tokPunct || t.kind == tokKeyword) && p.text(t) == text
}

func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) accept(text string) bool {
	if p.is(p.cur(), text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errorf("expected %q, found %s", text, p.describe(p.cur()))
	}
	return nil
}

// describe names a token for an error message, quoting a number without
// its separators.
func (p *parser) describe(t token) string {
	text := strconv.Quote(p.text(t))
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier " + text
	case tokNumber:
		return "number " + strconv.Quote(strings.ReplaceAll(p.text(t), "_", ""))
	case tokKeyword:
		return "keyword " + text
	}
	return text
}

// errorAt positions msg at token t; an escaped identifier's position is
// its backslash.
func (p *parser) errorAt(t token, msg string) error {
	off := int(t.begin)
	if off > 0 && p.src[off-1] == '\\' {
		off--
	}
	return syntaxError(p.src, off, msg)
}

func (p *parser) errorf(format string, args ...any) error {
	return p.errorAt(p.cur(), fmt.Sprintf(format, args...))
}

func (p *parser) ident() (string, error) {
	if !p.at(tokIdent) {
		return "", p.errorf("expected identifier, found %s", p.describe(p.cur()))
	}
	name := p.text(p.cur())
	p.pos++
	return name, nil
}

// reserve sizes the slabs and m's item slices from the tokens of the
// module starting at p.pos, so that parsing it allocates each once. A
// count is exact for the generated accelerator and at worst a little high
// otherwise: an identifier in a name position (after ".", a declaration
// keyword or a range; an instance's module and instance names) is no Ident
// node, an operator after an operand is binary and before one unary, "["
// after an operand opens a select, "<=" at depth 0 is a sequential
// assignment, "else" negates a guard, and a declaration list's commas
// bound its names. A count that falls short costs one more array.
func (p *parser) reserve(m *Module) {
	var idents, numbers, unaries, binaries, indexes, slices, seqs, conns int
	var ports, nets, params, assigns, alwayses, insts int
	depth, header, netDecl := 0, true, false
	toks := p.toks[p.pos-1:] // from the module's name on
	for i := 1; toks[i].kind != tokEOF && !p.is(toks[i], "endmodule"); i++ {
		t, prev, next := toks[i], toks[i-1], toks[i+1]
		operand := prev.kind == tokIdent || prev.kind == tokNumber ||
			p.is(prev, ")") || p.is(prev, "]") || p.is(prev, "}")
		switch t.kind {
		case tokIdent:
			if !p.isName(prev, next) {
				idents++
			}
		case tokNumber:
			numbers++
		case tokKeyword:
			switch p.text(t) {
			case "wire", "reg":
				if depth == 0 {
					nets++
					netDecl = true
				}
			case "parameter", "localparam":
				params++
			case "assign":
				assigns++
			case "always":
				alwayses++
			case "else":
				unaries++
			}
		case tokPunct:
			switch p.text(t) {
			case "(":
				if depth == 0 && !header && prev.kind == tokIdent {
					n, _ := p.group(toks[i:]) // an instance's connections
					insts, conns = insts+1, conns+n
				}
				depth++
			case "{":
				depth++
			case "[":
				depth++
				if !operand {
					break
				}
				if _, slice := p.group(toks[i:]); slice {
					slices++
				} else {
					indexes++
				}
			case ")", "]", "}":
				depth--
			case ";":
				if depth == 0 {
					header, netDecl = false, false
				}
			case ",":
				switch {
				case header && depth == 1:
					ports++
				case netDecl && depth == 0:
					nets++
				}
			case "<=":
				if depth == 0 {
					seqs++
				} else {
					binaries++
				}
			case "-", "&", "|", "^":
				if operand {
					binaries++
				} else {
					unaries++
				}
			case "~", "!":
				unaries++
			case "||", "&&", "==", "!=", "<", ">", ">=", "<<", ">>", "+", "*", "/", "%":
				binaries++
			}
		}
	}
	p.idents = make(slab[Ident], 0, idents)
	p.numbers = make(slab[Number], 0, numbers)
	p.unaries = make(slab[Unary], 0, unaries)
	p.binaries = make(slab[Binary], 0, binaries)
	p.indexes = make(slab[Index], 0, indexes)
	p.slices = make(slab[Slice], 0, slices)
	p.seqs = make([]SeqAssign, 0, seqs)
	p.order = make(slab[string], 0, conns)
	m.Params = make([]Param, 0, params)
	m.Ports = make([]Port, 0, ports+1)
	m.Nets = make([]Net, 0, nets)
	m.Assigns = make([]Assign, 0, assigns)
	m.Alwayses = make([]Always, 0, alwayses)
	m.Instances = make([]Instance, 0, insts)
}

// isName reports whether an identifier between prev and next names
// something — a declaration, a clock, an instance's module or the instance,
// a connected port — rather than reading a net.
func (p *parser) isName(prev, next token) bool {
	switch {
	case prev.kind == tokIdent || next.kind == tokIdent || p.is(next, "#"):
		return true
	case prev.kind == tokKeyword:
		switch p.text(prev) {
		case "assign", "begin", "else", "end":
			return false
		}
		return true
	}
	return p.is(prev, ".") || p.is(prev, "]")
}

// group scans the bracketed group opening at toks[0]: entries counts its
// top-level commas plus one (0 when empty), and slice reports a top-level
// ":" that closes no "?" — what makes a select a part select.
func (p *parser) group(toks []token) (entries int, slice bool) {
	depth, conds := 0, 0
	for i, t := range toks {
		switch {
		case t.kind == tokEOF:
			return entries + 1, slice
		case p.is(t, "(") || p.is(t, "[") || p.is(t, "{"):
			depth++
		case p.is(t, ")") || p.is(t, "]") || p.is(t, "}"):
			if depth--; depth == 0 {
				if i == 1 {
					return 0, false
				}
				return entries + 1, slice
			}
		case depth == 1 && p.is(t, ","):
			entries++
		case depth == 1 && p.is(t, "?"):
			conds++
		case depth == 1 && p.is(t, ":"):
			slice, conds = slice || conds == 0, max(conds-1, 0)
		}
	}
	return entries + 1, slice
}

// entries counts the entries of the list opening at the current token.
func (p *parser) entries() int {
	n, _ := p.group(p.toks[p.pos:])
	return n
}

// parseModule parses one complete module ... endmodule.
func (p *parser) parseModule() (*Module, error) {
	srcLine, _ := position(p.src, int(p.cur().begin))
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name, SrcLine: srcLine}
	p.reserve(m)

	// Optional parameter list: #(parameter N = 8, parameter M = 4)
	if p.accept("#") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		for {
			if !p.accept("parameter") {
				return nil, p.errorf("expected \"parameter\" in parameter port list, found %s", p.describe(p.cur()))
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
				if err := p.parsePortDecl(m); err != nil {
					return nil, err
				}
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
	for !p.is(p.cur(), "endmodule") {
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

// parsePortDecl parses one port declaration group into m.Ports: direction,
// optional reg, optional range, then one or more names (a, b, c). All
// names share the declaration.
func (p *parser) parsePortDecl(m *Module) error {
	var dir Dir
	switch {
	case p.accept("input"):
		dir = Input
	case p.accept("output"):
		dir = Output
	case p.accept("inout"):
		dir = Inout
	default:
		return p.errorf("expected port direction, found %s", p.describe(p.cur()))
	}
	isReg := p.accept("reg")
	p.accept("wire") // "input wire x" is legal; wire is the default
	rng, err := p.parseOptRange()
	if err != nil {
		return err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return err
		}
		m.Ports = append(m.Ports, Port{Name: name, Dir: dir, Range: rng, IsReg: isReg})
		// Multiple names within one decl group are separated by commas but a
		// comma may also start a whole new decl; only continue if the next
		// token after the comma is another identifier.
		if p.is(p.cur(), ",") && p.peek().kind == tokIdent {
			p.pos++ // consume comma, stay in group
			continue
		}
		return nil
	}
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

	case p.is(p.cur(), "wire") || p.is(p.cur(), "reg"):
		isReg := p.text(p.cur()) == "reg"
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
		m.Instances = append(m.Instances, Instance{})
		return p.parseInstance(&m.Instances[len(m.Instances)-1])

	default:
		return p.errorf("unexpected %s in module body", p.describe(p.cur()))
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
		return a, p.errorf("expected posedge or negedge, found %s", p.describe(p.cur()))
	}
	clk, err := p.ident()
	if err != nil {
		return a, err
	}
	a.Clock = clk
	if err := p.expect(")"); err != nil {
		return a, err
	}
	start := len(p.seqs)
	if err := p.parseSeqStmt(nil); err != nil {
		return a, err
	}
	if n := len(p.seqs); n > start {
		a.Body = p.seqs[start:n:n]
	}
	return a, nil
}

// parseSeqStmt parses one sequential statement under the given guard chain,
// appending the flattened nonblocking assignments to p.seqs.
func (p *parser) parseSeqStmt(guard []Expr) error {
	switch {
	case p.accept("begin"):
		for !p.accept("end") {
			if p.at(tokEOF) {
				return p.errorf("unexpected end of input in begin block")
			}
			if err := p.parseSeqStmt(guard); err != nil {
				return err
			}
		}
		return nil

	case p.accept("if"):
		if err := p.expect("("); err != nil {
			return err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		if err := p.parseSeqStmt(append(guard[:len(guard):len(guard)], cond)); err != nil {
			return err
		}
		if p.accept("else") {
			not := p.unaries.next()
			*not = Unary{Op: "!", X: cond}
			return p.parseSeqStmt(append(guard[:len(guard):len(guard)], not))
		}
		return nil

	default:
		lhs, err := p.parsePrimary()
		if err != nil {
			return err
		}
		if err := p.expect("<="); err != nil {
			return err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return err
		}
		if err := p.expect(";"); err != nil {
			return err
		}
		p.seqs = append(p.seqs, SeqAssign{LHS: lhs, RHS: rhs, Guard: guard})
		return nil
	}
}

// parseInstance parses into inst: modname [#(.P(v),...)] instname
// ( .port(expr), ... ); Positional connections ( expr, expr ) are also
// accepted.
func (p *parser) parseInstance(inst *Instance) error {
	modName, err := p.ident()
	if err != nil {
		return err
	}
	inst.ModuleName = modName

	if p.accept("#") {
		inst.Params = make(map[string]Expr, p.entries())
		if err := p.expect("("); err != nil {
			return err
		}
		for {
			if err := p.expect("."); err != nil {
				return err
			}
			pname, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expect("("); err != nil {
				return err
			}
			val, err := p.parseExpr()
			if err != nil {
				return err
			}
			if err := p.expect(")"); err != nil {
				return err
			}
			inst.Params[pname] = val
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return err
		}
	}

	iname, err := p.ident()
	if err != nil {
		return err
	}
	inst.Name = iname

	n := p.entries()
	inst.Conns = make(map[string]Expr, n)
	inst.Order = p.order.take(n)
	if err := p.expect("("); err != nil {
		return err
	}
	if !p.accept(")") {
		positional := 0
		for {
			if p.accept(".") {
				pname, err := p.ident()
				if err != nil {
					return err
				}
				if err := p.expect("("); err != nil {
					return err
				}
				var val Expr
				if !p.is(p.cur(), ")") {
					val, err = p.parseExpr()
					if err != nil {
						return err
					}
				}
				if err := p.expect(")"); err != nil {
					return err
				}
				if _, dup := inst.Conns[pname]; dup {
					return p.errorf("duplicate connection to port %q", pname)
				}
				inst.Conns[pname] = val
				inst.Order = append(inst.Order, pname)
			} else {
				val, err := p.parseExpr()
				if err != nil {
					return err
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
			return err
		}
	}
	return p.expect(";")
}

// positionalKey encodes a positional connection index as a reserved key that
// cannot collide with a legal port name.
func positionalKey(i int) string { return "$pos" + strconv.Itoa(i) }

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

// unaryOps are the prefix operators, in the order parseUnary tries them.
var unaryOps = []string{"~", "!", "-", "&", "|", "^"}

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
			if p.is(p.cur(), op) {
				p.pos++
				right, err := p.parseBinary(level + 1)
				if err != nil {
					return nil, err
				}
				b := p.binaries.next()
				*b = Binary{Op: op, L: left, R: right}
				left = b
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
	for _, op := range unaryOps {
		if p.is(p.cur(), op) {
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			u := p.unaries.next()
			*u = Unary{Op: op, X: x}
			return u, nil
		}
	}
	return p.parsePrimary()
}

// parsePrimary parses identifiers (with optional index/slice), numbers,
// parenthesized expressions, concatenations and replications.
func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.at(tokIdent):
		id := p.idents.next()
		id.Name = p.text(p.cur())
		p.pos++
		return p.parseSelects(id)

	case p.at(tokNumber):
		v, err := parseNumber(p.text(p.cur()))
		if err != nil {
			return nil, p.errorAt(p.cur(), err.Error())
		}
		p.pos++
		n := p.numbers.next()
		*n = v
		return n, nil

	case p.is(p.cur(), "("):
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return p.parseSelects(e)

	case p.is(p.cur(), "{"):
		n := p.entries()
		p.pos++
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
		parts := append(make([]Expr, 0, n), first)
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
		return nil, p.errorf("expected expression, found %s", p.describe(p.cur()))
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
			s := p.slices.next()
			*s = Slice{X: e, Msb: first, Lsb: lsb}
			e = s
			continue
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		ix := p.indexes.next()
		*ix = Index{X: e, At: first}
		e = ix
	}
	return e, nil
}

// parseNumber decodes a numeric literal token: 42, 8'hFF, 4'b1010, 16'd9,
// skipping _ separators. x/z digits are treated as 0 (two-valued subset).
func parseNumber(text string) (Number, error) {
	// Messages quote the literal without its separators.
	bad := func(format string) (Number, error) {
		return Number{}, fmt.Errorf(format, strings.ReplaceAll(text, "_", ""))
	}
	tick := strings.IndexByte(text, '\'')
	if tick < 0 {
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return bad("bad number %q")
		}
		return Number{Value: v}, nil
	}
	width := 32
	if tick > 0 {
		w, err := strconv.Atoi(text[:tick])
		if err != nil || w <= 0 || w > 64 {
			return bad("bad width in %q")
		}
		width = w
	}
	if tick+1 >= len(text) {
		return bad("truncated literal %q")
	}
	base := 10
	switch text[tick+1] {
	case 'b', 'B':
		base = 2
	case 'o', 'O':
		base = 8
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
		return bad("bad digits in %q")
	}
	if width < 64 {
		v &= (uint64(1) << uint(width)) - 1
	}
	return Number{Value: v, Width: width}, nil
}
