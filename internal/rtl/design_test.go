package rtl

import (
	"strings"
	"testing"
)

const adderDesign = `
module add8(input [7:0] a, input [7:0] b, output [8:0] y);
  assign y = {1'b0, a} + {1'b0, b};
endmodule

module top(input [7:0] x1, input [7:0] x2, output [8:0] s);
  add8 u0 (.a(x1), .b(x2), .y(s));
endmodule
`

func TestNewDesign(t *testing.T) {
	mods := mustParse(t, adderDesign)
	d, err := NewDesign(mods, "top")
	if err != nil {
		t.Fatal(err)
	}
	if d.Modules["add8"] == nil {
		t.Error("add8 missing")
	}
	if d.IsPrimitive("add8") || !d.IsPrimitive("DSP48E2") {
		t.Error("IsPrimitive misclassifies")
	}
	if _, err := NewDesign(mods, "nope"); err == nil {
		t.Error("missing top must error")
	}
	if _, err := NewDesign(append(mods, mods[0]), "top"); err == nil {
		t.Error("duplicate module must error")
	}
}

func TestBasicModules(t *testing.T) {
	d, err := ParseDesign(adderDesign, "top")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Modules["add8"].IsBasic(d.IsPrimitive) || d.Modules["top"].IsBasic(d.IsPrimitive) {
		t.Error("want add8 basic and top not")
	}
}

// TestValidate: every way into a Design checks instance connections, so a
// netlist wiring a port its module does not declare never reaches
// decompose (mlv decompose -rtl used to print a tree for this one).
func TestValidate(t *testing.T) {
	if _, err := ParseDesign(adderDesign, "top"); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
	const bad = `
		module sub(input a, output y); assign y = a; endmodule
		module top(input x, output z);
		  wire m;
		  sub u0 (.a(x), .y(m));
		  sub u1 (.a(m), .nosuch(z));
		endmodule`
	_, err := ParseDesign(bad, "top")
	if err == nil {
		t.Error("undeclared port accepted")
	} else {
		for _, want := range []string{"top.u1", `"nosuch"`, "module sub"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
		}
	}
	_, err = ParseDesign(`
		module sub(input a, output y); assign y = a; endmodule
		module top(input x, output z); sub u0 (x, z, x); endmodule`, "top")
	if err == nil || !strings.Contains(err.Error(), "positional connection 2") {
		t.Errorf("third positional connection to a two-port module: err = %v", err)
	}
	_, err = ParseDesign(`
		module child(input a, output y); assign y = a; endmodule
		module top(input x, input z, output o); child u (x, .a(z), .y(o)); endmodule`, "top")
	if err == nil || !strings.Contains(err.Error(), `port "a" of module child connected twice`) {
		t.Errorf("port a by position and by name: err = %v", err)
	}
}

func TestEvalConst(t *testing.T) {
	env := map[string]uint64{"W": 8}
	cases := map[string]uint64{
		"1 + 2*3":        7,
		"W - 1":          7,
		"(W == 8) ? 4:2": 4,
		"1 << W":         256,
		"W / 2":          4,
		"W % 3":          2,
		"!(W > 4)":       0,
		"W >= 8 && 1":    1,
	}
	for src, want := range cases {
		mods := mustParse(t, "module m(); localparam X = "+src+"; endmodule")
		got, err := EvalConst(mods[0].Params[0].Default, env)
		if err != nil {
			t.Errorf("EvalConst(%q): %v", src, err)
			continue
		}
		if got != want {
			t.Errorf("EvalConst(%q) = %d, want %d", src, got, want)
		}
	}
}

func TestEvalConstErrors(t *testing.T) {
	mods := mustParse(t, "module m(input x); localparam A = x + 1; localparam B = 1/0; endmodule")
	if _, err := EvalConst(mods[0].Params[0].Default, nil); err == nil {
		t.Error("net reference must not be constant")
	}
	if _, err := EvalConst(mods[0].Params[1].Default, nil); err == nil {
		t.Error("division by zero must error")
	}
}

// TestEvalConstAgreesWithSimulation: folding an expression and simulating
// `assign y = expr` give the same value, parameters read as 32 bits and
// unsized literals as 32 bits wide. x/0 is where they differ by design: a
// constant division or modulo by zero is an error, a simulated one is 0.
func TestEvalConstAgreesWithSimulation(t *testing.T) {
	exprs := []string{
		"P >> 31", "~0", "-1", "~4'h5", "8'd200 + 8'd100", "{4'hA, 4'h5}", "{3{2'b10}}",
		"&4'hF", "^3'b111", "P[35:30]", "W[3]", "P", "-W",
		"1 + 2*3", "W - 1", "(W == 8) ? 4:2", "1 << W", "W / 2", "W % 3", "!(W > 4)", "W >= 8 && 1",
	}
	for _, src := range exprs {
		d, err := ParseDesign("module m #(parameter W = 8, parameter P = 0 - 1) (output [63:0] y);\n"+
			"  assign y = "+src+";\nendmodule", "m")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		em := elab(t, d, "m")
		folded, err := EvalConst(d.Modules["m"].Assigns[0].RHS, em.Env)
		if err != nil {
			t.Errorf("EvalConst(%q): %v", src, err)
			continue
		}
		s, err := flatSim(d, "m", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		if simulated, _ := s.Peek("y"); simulated != folded {
			t.Errorf("%s: folds to %#x, simulates to %#x", src, folded, simulated)
		}
	}
	for _, src := range []string{"W / 0", "W % 0"} {
		s := newSim(t, "module m(output [7:0] y); localparam W = 8; assign y = "+src+"; endmodule", "m")
		if err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		if v, _ := s.Peek("y"); v != 0 {
			t.Errorf("simulated %s = %d, want 0", src, v)
		}
		e := mustParse(t, "module m(); localparam X = "+src+"; endmodule")[0].Params[0].Default
		if _, err := EvalConst(e, map[string]uint64{"W": 8}); err == nil {
			t.Errorf("EvalConst(%q) folded, want an error", src)
		}
	}
}

// TestPositionalPorts: NewDesign rewrites positional connections of a
// defined module to port names and keeps a blackbox's.
func TestPositionalPorts(t *testing.T) {
	d, err := ParseDesign(`
		module sub(input a, output y); assign y = a; endmodule
		module top(input x, output z, output w);
		  sub u0 (x, .y(z));
		  DSP48E2 u1 (x, w);
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	u0, u1 := d.Modules["top"].Instances[0], d.Modules["top"].Instances[1]
	if strings.Join(u0.Order, ",") != "a,y" || len(u0.Conns) != 2 || u0.Conns["a"] == nil {
		t.Errorf("u0: Order %q, Conns %v; want a, y", u0.Order, u0.Conns)
	}
	if strings.Join(u1.Order, ",") != "$pos0,$pos1" || len(u1.Conns) != 2 {
		t.Errorf("blackbox u1: Order %q, Conns %v; want positional keys", u1.Order, u1.Conns)
	}
}

func TestElaborateParams(t *testing.T) {
	d, err := ParseDesign(`
		module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
		  assign y = a;
		endmodule
		module top #(parameter N = 8) (input [N-1:0] x, output [N-1:0] z);
		  leaf #(.W(N)) u0 (.a(x), .y(z));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	em, err := d.Elaborate("top", nil)
	if err != nil {
		t.Fatal(err)
	}
	if em.PortWidths["x"] != 8 {
		t.Errorf("top port width = %d, want 8", em.PortWidths["x"])
	}
	if em.Children[0].Elab.PortWidths["a"] != 8 {
		t.Errorf("leaf elaborated width = %d, want 8", em.Children[0].Elab.PortWidths["a"])
	}
	// Override at the top.
	em16, err := d.Elaborate("top", map[string]uint64{"N": 16})
	if err != nil {
		t.Fatal(err)
	}
	if em16.Children[0].Elab.PortWidths["a"] != 16 {
		t.Errorf("override not propagated: %d", em16.Children[0].Elab.PortWidths["a"])
	}
	if em16.Key == em.Key {
		t.Error("different params must give different keys")
	}
}

func TestElaborateSharing(t *testing.T) {
	d, err := ParseDesign(`
		module leaf(input a, output y); assign y = a; endmodule
		module top(input x, output z);
		  wire w;
		  leaf u0 (.a(x), .y(w));
		  leaf u1 (.a(w), .y(z));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	em, err := d.Elaborate("top", nil)
	if err != nil {
		t.Fatal(err)
	}
	if em.Children[0].Elab != em.Children[1].Elab {
		t.Error("identical elaborations must be shared")
	}
}

func TestElaborateErrors(t *testing.T) {
	d, _ := ParseDesign(adderDesign, "top")
	if _, err := d.Elaborate("missing", nil); err == nil {
		t.Error("unknown module must error")
	}
	if _, err := d.Elaborate("top", map[string]uint64{"NOPE": 1}); err == nil {
		t.Error("unknown parameter override must error")
	}
	// Recursive instantiation must be caught.
	rec, err := ParseDesign("module a(input x); a u (.x(x)); endmodule", "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Elaborate("a", nil); err == nil {
		t.Error("recursive instantiation must error")
	}
}

func TestElabKey(t *testing.T) {
	if ElabKey("m", nil) != "m" {
		t.Error("no-param key must be bare name")
	}
	k := ElabKey("m", map[string]uint64{"B": 2, "A": 1})
	if k != "m(A=1,B=2)" {
		t.Errorf("key = %q, want sorted params", k)
	}
}

func TestInferWidth(t *testing.T) {
	widths := map[string]int{"a": 8, "b": 16, "c": 1}
	cases := []struct {
		src  string
		want int
	}{
		{"a", 8},
		{"a + b", 16},
		{"a == b", 1},
		{"{a, b}", 24},
		{"{3{a}}", 24},
		{"a[3]", 1},
		{"a[5:2]", 4},
		{"c ? a : b", 16},
		{"a << 2", 8},
		{"~a", 8},
		{"&a", 1},
	}
	for _, cse := range cases {
		mods := mustParse(t, "module m(input [7:0] a, input [15:0] b, input c, output [31:0] y); assign y = "+cse.src+"; endmodule")
		got, err := InferWidth(mods[0].Assigns[0].RHS, widths, nil)
		if err != nil {
			t.Errorf("InferWidth(%q): %v", cse.src, err)
			continue
		}
		if got != cse.want {
			t.Errorf("InferWidth(%q) = %d, want %d", cse.src, got, cse.want)
		}
	}
}

func TestRangeWidthErrors(t *testing.T) {
	d, err := ParseDesign(`module m(input [0:7] a); endmodule`, "m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Elaborate("m", nil); err == nil || !strings.Contains(err.Error(), "descending") {
		t.Errorf("ascending range must be rejected, got %v", err)
	}
	d2, _ := ParseDesign(`module m(input [99:0] a); endmodule`, "m")
	if _, err := d2.Elaborate("m", nil); err == nil {
		t.Error("width > 64 must be rejected")
	}
}
