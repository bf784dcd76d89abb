package rtl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mlvfpga/internal/bwrtl"
)

func mustParse(t *testing.T, src string) []*Module {
	t.Helper()
	mods, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return mods
}

func TestParseEmptyModule(t *testing.T) {
	mods := mustParse(t, "module m(); endmodule")
	if len(mods) != 1 || mods[0].Name != "m" {
		t.Fatalf("got %+v", mods)
	}
}

func TestParsePorts(t *testing.T) {
	mods := mustParse(t, `
		module m(input clk, input [7:0] a, b, output reg [15:0] q, inout io);
		endmodule`)
	m := mods[0]
	if len(m.Ports) != 5 {
		t.Fatalf("ports = %d, want 5", len(m.Ports))
	}
	if m.Ports[0].Name != "clk" || m.Ports[0].Dir != Input || !m.Ports[0].Range.IsScalar() {
		t.Errorf("clk port parsed wrong: %+v", m.Ports[0])
	}
	if m.Ports[2].Name != "b" || m.Ports[2].Dir != Input {
		t.Errorf("grouped port b parsed wrong: %+v", m.Ports[2])
	}
	if !m.Ports[3].IsReg || m.Ports[3].Dir != Output {
		t.Errorf("output reg q parsed wrong: %+v", m.Ports[3])
	}
	if m.Ports[4].Dir != Inout {
		t.Errorf("inout io parsed wrong: %+v", m.Ports[4])
	}
}

func TestParseParameters(t *testing.T) {
	mods := mustParse(t, `
		module m #(parameter W = 8, parameter D = W*2) (input [W-1:0] a);
		  localparam HALF = W / 2;
		  parameter EXTRA = 3;
		endmodule`)
	m := mods[0]
	if len(m.Params) != 4 {
		t.Fatalf("params = %d, want 4", len(m.Params))
	}
	if m.Params[2].Name != "HALF" || !m.Params[2].IsLocal {
		t.Errorf("localparam parsed wrong: %+v", m.Params[2])
	}
}

func TestParseAssignAndExprs(t *testing.T) {
	mods := mustParse(t, `
		module m(input [7:0] a, input [7:0] b, output [8:0] y, output z);
		  wire [7:0] t;
		  assign t = a & ~b | 8'hF0 ^ (a << 2);
		  assign y = {1'b0, a} + {1'b0, b};
		  assign z = (a == b) ? &t : a[3];
		endmodule`)
	m := mods[0]
	if len(m.Assigns) != 3 {
		t.Fatalf("assigns = %d, want 3", len(m.Assigns))
	}
	if _, ok := m.Assigns[2].RHS.(*Cond); !ok {
		t.Errorf("third assign RHS is %T, want *Cond", m.Assigns[2].RHS)
	}
}

func TestParseAlways(t *testing.T) {
	mods := mustParse(t, `
		module m(input clk, input rst, input en, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) begin
		    if (rst) q <= 8'd0;
		    else if (en) q <= d;
		  end
		endmodule`)
	m := mods[0]
	if len(m.Alwayses) != 1 {
		t.Fatalf("alwayses = %d", len(m.Alwayses))
	}
	a := m.Alwayses[0]
	if a.Clock != "clk" || a.Negedge {
		t.Errorf("clock parsed wrong: %+v", a)
	}
	if len(a.Body) != 2 {
		t.Fatalf("body = %d seq assigns, want 2", len(a.Body))
	}
	if len(a.Body[0].Guard) != 1 {
		t.Errorf("first assign guard = %v", a.Body[0].Guard)
	}
	if len(a.Body[1].Guard) != 2 {
		t.Errorf("else-if assign guards = %d, want 2", len(a.Body[1].Guard))
	}
}

// TestParseNetIndices: every Ident and clock reads its net index, ports
// first, then nets, whatever the order of use and declaration; a
// parameter or an unknown name reads -1.
func TestParseNetIndices(t *testing.T) {
	m := mustParse(t, `
		module m #(parameter N = 2) (input clk, input [7:0] a, output [7:0] y);
		  assign t = a + N + u;
		  wire [7:0] t;
		  reg g;
		  always @(posedge g) g <= clk;
		  assign y = t;
		endmodule`)[0]
	sum := m.Assigns[0].RHS.(*Binary) // (a + N) + u
	lhs := sum.L.(*Binary)
	for _, c := range []struct {
		id   Expr
		want int
	}{
		{m.Assigns[0].LHS, 3}, {lhs.L, 1}, {lhs.R, -1}, {sum.R, -1},
		{m.Alwayses[0].Body[0].LHS, 4}, {m.Alwayses[0].Body[0].RHS, 0}, {m.Assigns[1].LHS, 2},
	} {
		if id := c.id.(*Ident); id.Net != c.want {
			t.Errorf("%s: net %d, want %d", id.Name, id.Net, c.want)
		}
	}
	if m.Alwayses[0].ClockNet != 4 {
		t.Errorf("clock g: net %d, want 4", m.Alwayses[0].ClockNet)
	}
}

// TestParseNestedGuards: each branch of a deep if/else chain keeps its
// own guard chain; a then-branch's guards sharing an array with the
// else-branch's would read the else's negated condition.
func TestParseNestedGuards(t *testing.T) {
	mods := mustParse(t, `
		module m(input clk, input a, input b, input c, input d, output reg [2:0] q);
		  always @(posedge clk)
		    if (a) if (b) if (c) if (d) q <= 3'd1; else q <= 3'd2; else q <= 3'd3;
		endmodule`)
	var got []string
	for _, sa := range mods[0].Alwayses[0].Body {
		var g []string
		for _, e := range sa.Guard {
			g = append(g, e.String())
		}
		got = append(got, strings.Join(g, " ")+" => "+sa.RHS.String())
	}
	want := []string{
		"a b c d => 3'h1",
		"a b c !(d) => 3'h2",
		"a b !(c) => 3'h3",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("guards = %q, want %q", got, want)
	}
}

func TestParseInstances(t *testing.T) {
	mods := mustParse(t, `
		module sub(input a, output y); assign y = a; endmodule
		module top(input x, output z);
		  wire w;
		  sub u0 (.a(x), .y(w));
		  sub u1 (w, z);
		  sub #(.FOO(3)) u2 (.a(w), .y());
		endmodule`)
	top := mods[1]
	if len(top.Instances) != 3 {
		t.Fatalf("instances = %d", len(top.Instances))
	}
	if a, _ := top.Instances[0].Conn("a"); a == nil {
		t.Error("named connection .a missing")
	}
	if _, ok := top.Instances[1].Conn("$pos0"); !ok {
		t.Error("positional connection not recorded")
	}
	if top.Instances[2].Params["FOO"] == nil {
		t.Error("parameter override missing")
	}
	if v, present := top.Instances[2].Conn("y"); !present || v != nil {
		t.Error("explicitly unconnected port must be present with nil expr")
	}
}

func TestParseComments(t *testing.T) {
	mods := mustParse(t, `
		// line comment
		module m(input a /* inline */, output y);
		  /* block
		     comment */
		  assign y = a;
		endmodule`)
	if len(mods[0].Assigns) != 1 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestParseNumbers(t *testing.T) {
	cases := map[string]struct {
		val   uint64
		width int
	}{
		"42":       {42, 0},
		"8'hFF":    {255, 8},
		"4'b1010":  {10, 4},
		"16'd9":    {9, 16},
		"8'o17":    {15, 8},
		"4'b1x0z":  {8, 4}, // x/z read as 0
		"12'h_F_F": {255, 12},
	}
	for text, want := range cases {
		n, err := parseNumber(text)
		if err != nil {
			t.Errorf("parseNumber(%q): %v", text, err)
			continue
		}
		if n.Value != want.val || n.Width != want.width {
			t.Errorf("parseNumber(%q) = %d/%d, want %d/%d", text, n.Value, n.Width, want.val, want.width)
		}
	}
}

// TestLexAllocations: a token is a span of the source, so lexing the
// 4-tile accelerator costs the token slice and nothing else, and a literal
// with digit separators spans them; parseNumber skips them.
func TestLexAllocations(t *testing.T) {
	src := bwSource(t, 4)
	if n := testing.AllocsPerRun(5, func() { _, _ = lexAll(src) }); n > 1 {
		t.Errorf("lexAll of the 4-tile RTL allocates %v times, want <= 1", n)
	}
	src = "x = 16'hBE_EF + 8'd2_5;"
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := src[toks[2].begin:toks[2].end], src[toks[4].begin:toks[4].end]; a != "16'hBE_EF" || b != "8'd2_5" {
		t.Errorf("separated literals lexed as %q and %q", a, b)
	}
	for i, want := range map[int]uint64{2: 0xBEEF, 4: 25} {
		if n, err := parseNumber(src[toks[i].begin:toks[i].end]); err != nil || n.Value != want {
			t.Errorf("token %d parses as %v, %v; want %d", i, n.Value, err, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"module",                               // truncated
		"module m( endmodule",                  // bad port list
		"module m(); assign = 1; endmodule",    // missing lhs
		"module m(); wire; endmodule",          // missing net name
		"module m(); always @(clk) endmodule",  // missing edge
		"module m(); sub u0 (.a(x); endmodule", // unbalanced
		"module m(); assign y = 8'q3; endmodule",
		"module m(); /* unterminated",
		"module m(input a, input a2); assign y = 4'b; endmodule", // no digits
		"module m(input a); wire a; endmodule",                   // port redeclared
		"module m(); wire b; reg b; endmodule",                   // net redeclared
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("module m();\n  assign y = ;\nendmodule")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "line 2") {
		t.Errorf("error message %q lacks position", se.Error())
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	src := `module m(input [7:0] a, output [7:0] y);
	  assign y = (a + 8'h01) & {2{a[3:0]}};
	endmodule`
	mods := mustParse(t, src)
	rendered := mods[0].Assigns[0].RHS.String()
	// Re-parse the rendered expression inside a wrapper module.
	re := "module m(input [7:0] a, output [7:0] y); assign y = " + rendered + "; endmodule"
	mods2 := mustParse(t, re)
	if mods2[0].Assigns[0].RHS.String() != rendered {
		t.Errorf("expression rendering is not stable: %q vs %q",
			rendered, mods2[0].Assigns[0].RHS.String())
	}
}

func TestEscapedIdentifier(t *testing.T) {
	mods := mustParse(t, "module m(input \\weird.name , output y); assign y = \\weird.name ; endmodule")
	if mods[0].Ports[0].Name != "weird.name" {
		t.Errorf("escaped identifier = %q", mods[0].Ports[0].Name)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	mods := mustParse(t, `module m(input [7:0] a, b, c, output [7:0] y);
	  assign y = a + b * c;
	endmodule`)
	bin, ok := mods[0].Assigns[0].RHS.(*Binary)
	if !ok || bin.Op != "+" {
		t.Fatalf("top op = %v", mods[0].Assigns[0].RHS)
	}
	if r, ok := bin.R.(*Binary); !ok || r.Op != "*" {
		t.Errorf("* must bind tighter than +: %v", bin.R)
	}
}

// Property: rendering a random-ish expression tree and re-parsing it is
// stable (String is a fixpoint after one round).
func TestQuickExprStringStable(t *testing.T) {
	ops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "==", "<"}
	var build func(r *rand.Rand, depth int) Expr
	build = func(r *rand.Rand, depth int) Expr {
		if depth <= 0 || r.Intn(3) == 0 {
			if r.Intn(2) == 0 {
				return &Ident{Name: string(rune('a' + r.Intn(4)))}
			}
			return &Number{Value: uint64(r.Intn(256)), Width: 8}
		}
		switch r.Intn(6) {
		case 0:
			return &Unary{Op: "~", X: build(r, depth-1)}
		case 1:
			return &Cond{If: build(r, depth-1), Then: build(r, depth-1), Else: build(r, depth-1)}
		case 2:
			return &Concat{Parts: []Expr{build(r, depth-1), build(r, depth-1)}}
		case 3:
			return &Index{X: &Ident{Name: "a"}, At: &Number{Value: uint64(r.Intn(8))}}
		case 4:
			return &Slice{X: &Ident{Name: "b"}, Msb: &Number{Value: 7}, Lsb: &Number{Value: 2}}
		default:
			return &Binary{Op: ops[r.Intn(len(ops))], L: build(r, depth-1), R: build(r, depth-1)}
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := build(r, 4)
		src := "module m(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d, output [63:0] y); assign y = " + e.String() + "; endmodule"
		mods, err := Parse(src)
		if err != nil {
			t.Logf("parse of %q: %v", e.String(), err)
			return false
		}
		rendered := mods[0].Assigns[0].RHS.String()
		mods2, err := Parse("module m(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d, output [63:0] y); assign y = " + rendered + "; endmodule")
		if err != nil {
			return false
		}
		return mods2[0].Assigns[0].RHS.String() == rendered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bwSource generates the accelerator RTL of the given tile count.
func bwSource(t *testing.T, tiles int) string {
	t.Helper()
	src, err := bwrtl.Generate(bwrtl.Profile{Tiles: tiles, UseURAM: true})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestReserveIsExact: the counts reserve sizes from are exact for the
// generated accelerator, so the parse's design-wide slabs (modules, their
// items, AST nodes) and every module's item slices are filled to capacity; and a module whose counts are off (a
// comparison "<=" at depth 0 counts as a sequential assignment, not a
// Binary node; a parameterized instance's name counts as an operand)
// still parses whole.
func TestReserveIsExact(t *testing.T) {
	for _, tiles := range []int{1, 2, 4} {
		src := bwSource(t, tiles)
		toks, err := lexAll(src)
		if err != nil {
			t.Fatal(err)
		}
		p := &parser{src: src, toks: toks}
		p.reserve()
		for !p.at(tokEOF) {
			m, err := p.parseModule()
			if err != nil {
				t.Fatal(err)
			}
			spare := map[string]int{
				"params": cap(m.Params) - len(m.Params), "ports": cap(m.Ports) - len(m.Ports),
				"nets": cap(m.Nets) - len(m.Nets), "assigns": cap(m.Assigns) - len(m.Assigns),
				"alwayses": cap(m.Alwayses) - len(m.Alwayses), "instances": cap(m.Instances) - len(m.Instances),
			}
			for items, n := range spare {
				if n != 0 {
					t.Errorf("tiles=%d module %s: %d spare %s", tiles, m.Name, n, items)
				}
			}
		}
		spare := map[string]int{
			"idents": cap(p.idents) - len(p.idents), "numbers": cap(p.numbers) - len(p.numbers),
			"unaries": cap(p.unaries) - len(p.unaries), "binaries": cap(p.binaries) - len(p.binaries),
			"indexes": cap(p.indexes) - len(p.indexes), "slices": cap(p.slices) - len(p.slices),
			"seqs": cap(p.seqs) - len(p.seqs), "conns": cap(p.conns) - len(p.conns),
			"concats": cap(p.concats) - len(p.concats), "parts": cap(p.parts) - len(p.parts),
			"modules": cap(p.mods) - len(p.mods), "params": cap(p.params) - len(p.params),
			"ports": cap(p.ports) - len(p.ports), "nets": cap(p.nets) - len(p.nets),
			"assigns": cap(p.assigns) - len(p.assigns), "alwayses": cap(p.alwayses) - len(p.alwayses),
			"instances": cap(p.insts) - len(p.insts),
		}
		for slab, n := range spare {
			if n != 0 {
				t.Errorf("tiles=%d: %d spare %s", tiles, n, slab)
			}
		}
	}
	short := `module m #(parameter W = 2) (input clk, input [3:0] a, output reg q);
  wire [3:0] t;
  sub #(.W(W)) u (a[0], t[W-1:0]);
  always @(posedge clk) q <= a <= t;
endmodule`
	mods, err := Parse(short)
	if err != nil {
		t.Fatal(err)
	}
	if got := WriteModule(mods[0]); !strings.Contains(got, "q <= (a <= t);") || !strings.Contains(got, "sub #(.W(W)) u (a[0], t[(W - 1):0]);") {
		t.Errorf("short counts parsed as:\n%s", got)
	}
}
