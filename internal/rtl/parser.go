package rtl

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over a pre-lexed token stream.
// The modules, their items (parameters, ports, nets, assignments, always
// blocks, instances), their leaf nodes (identifiers, numbers, unary and
// binary operators, selects, concatenations), sequential assignments and
// instances' connections are carved from design-wide slabs reserve sizes
// in one pass over the source's tokens, so a parse allocates each slab
// once, not once per module or node.
type parser struct {
	src  string
	toks []token
	pos  int

	idents    slab[Ident]
	modIdents []*Ident       // the Idents of the module being parsed
	netIdx    map[string]int // its ports' and nets' indices plus one, by name
	numbers   slab[Number]
	unaries   slab[Unary]
	binaries  slab[Binary]
	indexes   slab[Index]
	slices    slab[Slice]
	concats   slab[Concat]
	parts     slab[Expr]   // backing of the Concat parts
	seqs      []SeqAssign  // backing of the Always bodies
	conns     []Conn       // backing of the Instance.Conns lists
	mods      slab[Module] // in source order
	// The module items, appended in source order; each module's lists are
	// cut from them at its endmodule.
	params   []Param
	ports    []Port
	nets     []Net
	assigns  []Assign
	alwayses []Always
	insts    []Instance
	n        sizes // the counts reserve sums
}

// slab hands out elements of one backing array. reserve sizes it from an
// upper bound on what the source needs; a short count only costs a fresh
// array.
type slab[T any] []T

func (s *slab[T]) next() *T { return &s.cut(1)[:1][0] }

// cut hands out an empty list of capacity n.
func (s *slab[T]) cut(n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(cap(*s), n+8))
	}
	l := len(*s)
	*s = (*s)[:l+n]
	return (*s)[l : l : l+n]
}

// from returns the elements of s appended since it held n, clipped so an
// append to them cannot reach the next module's.
func from[T any](s []T, n int) []T { return s[n:len(s):len(s)] }

// Parse parses Verilog-subset source text into a list of modules.
func Parse(src string) ([]*Module, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	p.reserve()
	mods := make([]*Module, 0, cap(p.mods))
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

// sizes bounds the modules, their items and the AST nodes of a source.
type sizes struct {
	idents, numbers, unaries, binaries, indexes, slices, concats, parts, seqs, conns int
	mods, params, ports, nets, assigns, alwayses, insts                              int
}

// reserve sizes the slabs of the source.
func (p *parser) reserve() {
	idents, nets := 0, 0 // the most of one module
	for i := 0; i < len(p.toks)-1; i++ {
		if p.is(p.toks[i], "module") && p.toks[i+1].kind == tokIdent {
			before := p.n
			p.n.mods++
			i = p.count(i + 1)
			idents = max(idents, p.n.idents-before.idents)
			nets = max(nets, p.n.ports+p.n.nets-before.ports-before.nets)
		}
	}
	n := p.n
	p.modIdents, p.netIdx = make([]*Ident, 0, idents), make(map[string]int, nets)
	p.mods = make(slab[Module], 0, n.mods)
	p.params, p.ports, p.nets = make([]Param, 0, n.params), make([]Port, 0, n.ports), make([]Net, 0, n.nets)
	p.assigns, p.alwayses, p.insts = make([]Assign, 0, n.assigns), make([]Always, 0, n.alwayses), make([]Instance, 0, n.insts)
	p.concats, p.parts = make(slab[Concat], 0, n.concats), make(slab[Expr], 0, n.parts)
	p.idents = make(slab[Ident], 0, n.idents)
	p.numbers = make(slab[Number], 0, n.numbers)
	p.unaries = make(slab[Unary], 0, n.unaries)
	p.binaries = make(slab[Binary], 0, n.binaries)
	p.indexes = make(slab[Index], 0, n.indexes)
	p.slices = make(slab[Slice], 0, n.slices)
	p.seqs = make([]SeqAssign, 0, n.seqs)
	p.conns = make([]Conn, 0, n.conns)
}

// count adds the items and nodes of the module whose name is token at to
// p.n and returns the index of its endmodule (or of the end of input). A
// count is exact for the generated accelerator and at worst a little high
// otherwise: an identifier in a name position (after ".", a declaration
// keyword or a range; an instance's module and instance names) is no
// Ident node, an operator after an operand is binary and before one
// unary, "[" after an operand opens a select and "{" not after one a
// concatenation, "<=" at depth 0 is a sequential assignment, "else"
// negates a guard, and a declaration list's commas bound its names. A
// count that falls short costs one more array.
func (p *parser) count(at int) int {
	n := &p.n
	n.ports++ // a port list's last entry has no comma
	depth, header, netDecl := 0, true, false
	toks := p.toks[at:] // from the module's name on
	i := 1
	for ; toks[i].kind != tokEOF && !p.is(toks[i], "endmodule"); i++ {
		t, prev, next := toks[i], toks[i-1], toks[i+1]
		operand := prev.kind == tokIdent || prev.kind == tokNumber ||
			p.is(prev, ")") || p.is(prev, "]") || p.is(prev, "}")
		switch t.kind {
		case tokIdent:
			if !p.isName(prev, next) {
				n.idents++
			}
		case tokNumber:
			n.numbers++
		case tokKeyword:
			switch p.text(t) {
			case "wire", "reg":
				if depth == 0 {
					n.nets++
					netDecl = true
				}
			case "parameter", "localparam":
				n.params++
			case "assign":
				n.assigns++
			case "always":
				n.alwayses++
			case "else":
				n.unaries++
			}
		case tokPunct:
			switch p.text(t) {
			case "(":
				if depth == 0 && !header && prev.kind == tokIdent {
					c, _ := p.group(toks[i:]) // an instance's connections
					n.insts, n.conns = n.insts+1, n.conns+c
				}
				depth++
			case "{":
				depth++
				if !operand {
					c, _ := p.group(toks[i:])
					n.concats, n.parts = n.concats+1, n.parts+c
				}
			case "[":
				depth++
				if !operand {
					break
				}
				if _, slice := p.group(toks[i:]); slice {
					n.slices++
				} else {
					n.indexes++
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
					n.ports++
				case netDecl && depth == 0:
					n.nets++
				}
			case "<=":
				if depth == 0 {
					n.seqs++
				} else {
					n.binaries++
				}
			case "-", "&", "|", "^":
				if operand {
					n.binaries++
				} else {
					n.unaries++
				}
			case "~", "!":
				n.unaries++
			case "||", "&&", "==", "!=", "<", ">", ">=", "<<", ">>", "+", "*", "/", "%":
				n.binaries++
			}
		}
	}
	return at + i
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
	m := p.mods.next()
	m.Name, m.SrcLine = name, srcLine
	params, ports, nets := len(p.params), len(p.ports), len(p.nets)
	assigns, alwayses, insts := len(p.assigns), len(p.alwayses), len(p.insts)

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
			p.params = append(p.params, prm)
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
				if err := p.parsePortDecl(); err != nil {
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
		if err := p.parseModuleItem(); err != nil {
			return nil, err
		}
	}
	p.pos++ // consume endmodule
	m.Params, m.Ports, m.Nets = from(p.params, params), from(p.ports, ports), from(p.nets, nets)
	m.Assigns, m.Alwayses, m.Instances = from(p.assigns, assigns), from(p.alwayses, alwayses), from(p.insts, insts)
	return m, p.resolve(m)
}

// resolve gives every Ident and clock of m its net index, so no later
// pass looks a net up by name. A name declared twice, as ports or nets,
// is an error: it would have no one index.
func (p *parser) resolve(m *Module) error {
	clear(p.netIdx)
	for i := range len(m.Ports) + len(m.Nets) {
		name, _ := m.declared(i)
		if _, dup := p.netIdx[name]; dup {
			return fmt.Errorf("rtl: module %s declares %q twice", m.Name, name)
		}
		p.netIdx[name] = i + 1
	}
	// A name that declares nothing reads 0, so its index is -1.
	for _, id := range p.modIdents {
		id.Net = p.netIdx[id.Name] - 1
	}
	for i := range m.Alwayses {
		m.Alwayses[i].ClockNet = p.netIdx[m.Alwayses[i].Clock] - 1
	}
	p.modIdents = p.modIdents[:0]
	return nil
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

// parsePortDecl parses one port declaration group into p.ports: direction,
// optional reg, optional range, then one or more names (a, b, c). All
// names share the declaration.
func (p *parser) parsePortDecl() error {
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
		p.ports = append(p.ports, Port{Name: name, Dir: dir, Range: rng, IsReg: isReg})
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
func (p *parser) parseModuleItem() error {
	switch {
	case p.accept("parameter"):
		prm, err := p.parseParamDecl(false)
		if err != nil {
			return err
		}
		p.params = append(p.params, prm)
		return p.expect(";")

	case p.accept("localparam"):
		prm, err := p.parseParamDecl(true)
		if err != nil {
			return err
		}
		p.params = append(p.params, prm)
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
			p.nets = append(p.nets, Net{Name: name, Range: rng, IsReg: isReg})
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
		p.assigns = append(p.assigns, Assign{LHS: lhs, RHS: rhs})
		return p.expect(";")

	case p.accept("always"):
		alw, err := p.parseAlways()
		if err != nil {
			return err
		}
		p.alwayses = append(p.alwayses, alw)
		return nil

	case p.at(tokIdent):
		p.insts = append(p.insts, Instance{})
		return p.parseInstance(&p.insts[len(p.insts)-1])

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

	start := len(p.conns)
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
				if _, dup := inst.Conn(pname); dup {
					return p.errorf("duplicate connection to port %q", pname)
				}
				p.conns = append(p.conns, Conn{Port: pname, Expr: val})
			} else {
				val, err := p.parseExpr()
				if err != nil {
					return err
				}
				p.conns = append(p.conns, Conn{Port: positionalKey(positional), Expr: val})
				positional++
			}
			inst.Conns = p.conns[start:len(p.conns):len(p.conns)]
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
		p.modIdents = append(p.modIdents, id)
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
		c := p.concats.next()
		c.Parts = append(p.parts.cut(n), first)
		for p.accept(",") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return c, nil

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
