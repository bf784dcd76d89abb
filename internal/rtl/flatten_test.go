package rtl

import (
	"strings"
	"testing"
)

func TestFlattenStructure(t *testing.T) {
	d, err := ParseDesign(`
		module stage(input clk, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) q <= d;
		endmodule
		module top(input clk, input [7:0] in, output [7:0] out);
		  wire [7:0] mid;
		  stage s0 (.clk(clk), .d(in), .q(mid));
		  stage s1 (.clk(clk), .d(mid), .q(out));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := d.Flatten("top", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Instances) != 0 {
		t.Errorf("flat module keeps %d instances", len(flat.Instances))
	}
	// Prefixed nets from both stages exist.
	names := map[string]bool{}
	for _, n := range flat.Nets {
		names[n.Name] = true
	}
	for _, want := range []string{"mid", "s0.d", "s0.q", "s1.d", "s1.q", "s0.clk", "s1.clk"} {
		if !names[want] {
			t.Errorf("flat net %q missing; have %v", want, flat.Nets)
		}
	}
	// Two always blocks survive, with prefixed clocks.
	if len(flat.Alwayses) != 2 {
		t.Fatalf("alwayses = %d", len(flat.Alwayses))
	}
	clocks := []string{flat.Alwayses[0].Clock, flat.Alwayses[1].Clock}
	if clocks[0] != "s0.clk" && clocks[1] != "s0.clk" {
		t.Errorf("clocks = %v", clocks)
	}
}

func TestFlattenParameterSubstitution(t *testing.T) {
	d, err := ParseDesign(`
		module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
		  assign y = a + W;
		endmodule
		module top(input [7:0] x, output [7:0] z);
		  leaf #(.W(8)) u (.a(x), .y(z));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := d.Flatten("top", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The parameter W must be folded into a constant in the assign.
	found := false
	for _, a := range flat.Assigns {
		if strings.Contains(a.RHS.String(), "32'h8") {
			found = true
		}
	}
	if !found {
		t.Errorf("parameter not folded; assigns: %v", flat.Assigns)
	}
	// Simulate: y = x + 8.
	s, err := NewFlatSimulator(flat)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInput("x", 5)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("z"); v != 13 {
		t.Errorf("z = %d, want 13", v)
	}
}

func TestFlattenOutputToSliceLValue(t *testing.T) {
	d, err := ParseDesign(`
		module half(input [3:0] a, output [3:0] y); assign y = ~a; endmodule
		module top(input [7:0] x, output [7:0] z);
		  half lo (.a(x[3:0]), .y(z[3:0]));
		  half hi (.a(x[7:4]), .y(z[7:4]));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	s, err := flatSim(d, "top", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInput("x", 0xA5)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("z"); v != 0x5A {
		t.Errorf("z = %#x, want 0x5a", v)
	}
}

func TestFlattenRejectsNonLValueOutput(t *testing.T) {
	d, err := ParseDesign(`
		module sub(input a, output y); assign y = a; endmodule
		module top(input x, output z);
		  sub u (.a(x), .y(z & x));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Flatten("top", nil); err == nil {
		t.Error("output bound to an expression must fail")
	}
}

func TestFlattenRejectsInout(t *testing.T) {
	d, err := ParseDesign(`
		module sub(inout io); endmodule
		module top(inout p);
		  sub u (.io(p));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Flatten("top", nil); err == nil || !strings.Contains(err.Error(), "inout") {
		t.Errorf("inout flattening = %v", err)
	}
}

func TestFlattenDeepHierarchy(t *testing.T) {
	d, err := ParseDesign(`
		module l0(input [3:0] a, output [3:0] y); assign y = a + 4'd1; endmodule
		module l1(input [3:0] a, output [3:0] y);
		  wire [3:0] m;
		  l0 i0 (.a(a), .y(m));
		  l0 i1 (.a(m), .y(y));
		endmodule
		module l2(input [3:0] a, output [3:0] y);
		  wire [3:0] m;
		  l1 i0 (.a(a), .y(m));
		  l1 i1 (.a(m), .y(y));
		endmodule`, "l2")
	if err != nil {
		t.Fatal(err)
	}
	s, err := flatSim(d, "l2", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInput("a", 3)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("y"); v != 7 {
		t.Errorf("4 chained increments of 3 = %d, want 7", v)
	}
}
