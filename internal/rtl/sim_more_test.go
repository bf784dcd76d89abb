package rtl

import "testing"

// Exercises the remaining evaluator operators through RTL programs.
func TestSimOperatorsWide(t *testing.T) {
	s := newSim(t, `
		module ops(input [7:0] a, input [7:0] b,
		           output [7:0] o_div, output [7:0] o_mod, output [7:0] o_sub,
		           output o_ne, output o_le, output o_ge, output o_land, output o_lor,
		           output o_not, output o_redand, output o_redor,
		           output [7:0] o_neg, output [15:0] o_repl, output [7:0] o_shl,
		           output [7:0] o_condx, output o_bit);
		  assign o_div = a / b;
		  assign o_mod = a % b;
		  assign o_sub = a - b;
		  assign o_ne = a != b;
		  assign o_le = a <= b;
		  assign o_ge = a >= b;
		  assign o_land = a[0] && b[0];
		  assign o_lor = a[0] || b[0];
		  assign o_not = !a;
		  assign o_redand = &a;
		  assign o_redor = |a;
		  assign o_neg = -a;
		  assign o_repl = {2{a}};
		  assign o_shl = a << b[1:0];
		  assign o_condx = b[0] ? a : ~a;
		  assign o_bit = a[b[2:0]];
		endmodule`, "ops")
	s.SetInput("a", 0xF0)
	s.SetInput("b", 0x05)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	checks := map[string]uint64{
		"o_div": 0x30, "o_mod": 0, "o_sub": 0xEB,
		"o_ne": 1, "o_le": 0, "o_ge": 1,
		"o_land": 0, "o_lor": 1, "o_not": 0,
		"o_redand": 0, "o_redor": 1,
		"o_neg": 0x10, "o_repl": 0xF0F0, "o_shl": 0xE0,
		"o_condx": 0xF0, "o_bit": 1, // bit 5 of 0xF0
	}
	for net, want := range checks {
		if v, _ := s.Peek(net); v != want {
			t.Errorf("%s = %#x, want %#x", net, v, want)
		}
	}
}

func TestSimDivModByZero(t *testing.T) {
	s := newSim(t, `
		module m(input [7:0] a, output [7:0] d, output [7:0] r);
		  assign d = a / 8'd0;
		  assign r = a % 8'd0;
		endmodule`, "m")
	s.SetInput("a", 42)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("d"); v != 0 {
		t.Errorf("x/0 = %d, want 0 (two-valued subset)", v)
	}
	if v, _ := s.Peek("r"); v != 0 {
		t.Errorf("x%%0 = %d, want 0", v)
	}
}

func TestSimReductionAllOnes(t *testing.T) {
	s := newSim(t, `
		module m(input [3:0] a, output y); assign y = &a; endmodule`, "m")
	s.SetInput("a", 0xF)
	s.Settle()
	if v, _ := s.Peek("y"); v != 1 {
		t.Errorf("&4'b1111 = %d, want 1", v)
	}
}

func TestSimXorReduceParity(t *testing.T) {
	s := newSim(t, `module m(input [7:0] a, output y); assign y = ^a; endmodule`, "m")
	for _, c := range []struct {
		in   uint64
		want uint64
	}{{0b1011, 1}, {0b11, 0}, {0, 0}, {0xFF, 0}} {
		s.SetInput("a", c.in)
		s.Settle()
		if v, _ := s.Peek("y"); v != c.want {
			t.Errorf("^%#b = %d, want %d", c.in, v, c.want)
		}
	}
}

func TestSimStoreConcatWide(t *testing.T) {
	s := newSim(t, `
		module m(input [11:0] a, output [3:0] hi, output [3:0] mid, output [3:0] lo);
		  assign {hi, mid, lo} = a;
		endmodule`, "m")
	s.SetInput("a", 0xABC)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	hi, _ := s.Peek("hi")
	mid, _ := s.Peek("mid")
	lo, _ := s.Peek("lo")
	if hi != 0xA || mid != 0xB || lo != 0xC {
		t.Errorf("{hi,mid,lo} = %x,%x,%x", hi, mid, lo)
	}
}

func TestSimDynamicIndexStore(t *testing.T) {
	s := newSim(t, `
		module m(input clk, input [2:0] sel, input b, output reg [7:0] q);
		  always @(posedge clk) q[sel] <= b;
		endmodule`, "m")
	s.SetInput("sel", 3)
	s.SetInput("b", 1)
	s.Tick()
	s.SetInput("sel", 6)
	s.Tick()
	if v, _ := s.Peek("q"); v != 0b01001000 {
		t.Errorf("q = %#b, want 0b01001000", v)
	}
	// Clearing a bit.
	s.SetInput("sel", 3)
	s.SetInput("b", 0)
	s.Tick()
	if v, _ := s.Peek("q"); v != 0b01000000 {
		t.Errorf("q = %#b after clear", v)
	}
}

func TestGraphString(t *testing.T) {
	d, err := ParseDesign(chainDesign, "top")
	if err != nil {
		t.Fatal(err)
	}
	g := d.BasicGraph(elab(t, d, "top"))
	s := g.String()
	if len(s) == 0 || g.bandwidth(0, 99) != 0 {
		t.Error("graph debug output or bandwidth lookup broken")
	}
}

// estimateExpr paths: variable shifts, replication, conditionals, dynamic
// index all contribute LUTs.
func TestEstimateOperatorPaths(t *testing.T) {
	d, err := ParseDesign(`
		module m(input [15:0] a, input [3:0] s, input c, output [31:0] y);
		  wire [15:0] t1;
		  wire [15:0] t2;
		  wire [31:0] t3;
		  wire t4;
		  assign t1 = a >> s;
		  assign t2 = c ? a : ~a;
		  assign t3 = {2{t1}} | {t2, 16'd0};
		  assign t4 = a[s] && (a < t1) || !(a >= t2);
		  assign y = t3 ^ {31'd0, t4};
		endmodule`, "m")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.EstimateResources(elab(t, d, "m"))
	if err != nil {
		t.Fatal(err)
	}
	// Barrel shifter (2*16) + mux (16) + inverter + compares + glue.
	if res.LUTs < 60 {
		t.Errorf("LUTs = %d, want >= 60 for shifter+mux+compares", res.LUTs)
	}
	if res.DSPs != 0 || res.DFFs != 0 {
		t.Errorf("unexpected DSP/DFF: %v", res)
	}
}
