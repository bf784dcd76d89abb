package rtl

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// roundTrip parses src, writes it back, re-parses, and compares structural
// hashes of every module.
func roundTrip(t *testing.T, src, top string) {
	t.Helper()
	d1, err := ParseDesign(src, top)
	if err != nil {
		t.Fatalf("first parse: %v", err)
	}
	rendered := WriteDesign(d1)
	d2, err := ParseDesign(rendered, top)
	if err != nil {
		t.Fatalf("re-parse of rendered source: %v\n%s", err, rendered)
	}
	for _, name := range d1.SortedModuleNames() {
		em1, err := d1.Elaborate(name, nil)
		if err != nil {
			continue // modules needing parameters elaborate via parents
		}
		em2, err := d2.Elaborate(name, nil)
		if err != nil {
			t.Fatalf("module %s missing after round trip: %v", name, err)
		}
		if hashOf(d1, em1) != hashOf(d2, em2) {
			t.Errorf("module %s structural hash changed after round trip:\n%s",
				name, WriteModule(d2.Modules[name]))
		}
	}
}

func TestWriterRoundTripAdder(t *testing.T) {
	roundTrip(t, adderDesign, "top")
}

func TestWriterRoundTripChain(t *testing.T) {
	roundTrip(t, chainDesign, "top")
}

func TestWriterRoundTripGuards(t *testing.T) {
	roundTrip(t, `
		module m(input clk, input rst, input en, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) begin
		    if (rst) q <= 8'd0;
		    else if (en) q <= d;
		  end
		endmodule`, "m")
}

func TestWriterRoundTripParameters(t *testing.T) {
	roundTrip(t, `
		module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
		  localparam HALF = W / 2;
		  assign y = a ^ {HALF{2'b01}};
		endmodule
		module top(input [7:0] x, output [7:0] z);
		  leaf #(.W(8)) u0 (.a(x), .y(z));
		endmodule`, "top")
}

func TestWriterRoundTripBlackbox(t *testing.T) {
	roundTrip(t, `
		module m(input clk, input [17:0] a, input [17:0] b, output [47:0] p);
		  DSP48E2 mul (.CLK(clk), .A(a), .B(b), .P(p));
		  RAMB36E2 mem (.CLK(clk));
		endmodule`, "m")
}

func TestWriterRoundTripUnconnectedAndNegedge(t *testing.T) {
	roundTrip(t, `
		module sub(input a, input b, output y); assign y = a & b; endmodule
		module m(input clk, input x, output z);
		  reg r;
		  sub u (.a(x), .b(), .y(z));
		  always @(negedge clk) r <= x;
		endmodule`, "m")
}

// The generated BrainWave accelerator must survive a round trip: this
// exercises every construct the generator emits.
func TestWriterRoundTripBWTop(t *testing.T) {
	// Import cycle prevents using bwrtl here; reproduce a representative
	// slice of its constructs instead.
	roundTrip(t, `
		module mvm_like(input clk, input [63:0] vec, input v, input [15:0] cmd,
		                output [63:0] partial, output pv_o);
		  wire [15:0] lane0;
		  reg [15:0] addr_r;
		  reg [63:0] acc_r;
		  reg pv;
		  URAM288 wm (.CLK(clk));
		  DSP48E2 d0 (.CLK(clk), .A(vec[15:0]), .B(acc_r[15:0]), .P(lane0));
		  always @(posedge clk) begin
		    if (cmd[15]) addr_r <= cmd;
		    else addr_r <= addr_r + 16'd1;
		    acc_r <= {48'd0, lane0} + acc_r;
		    pv <= v;
		  end
		  assign partial = acc_r;
		  assign pv_o = pv;
		endmodule
		module top(input clk, input [63:0] x, input xv, input [15:0] c, output [63:0] y, output yv);
		  mvm_like t0 (.clk(clk), .vec(x), .v(xv), .cmd(c), .partial(y), .pv_o(yv));
		endmodule`, "top")
}

// Functional round trip: the rendered design simulates identically.
func TestWriterRoundTripSimulates(t *testing.T) {
	src := `
		module top(input clk, input [7:0] a, input [7:0] b, output reg [7:0] q);
		  wire [7:0] s;
		  assign s = a + b;
		  always @(posedge clk) q <= s ^ {a[3:0], b[7:4]};
		endmodule`
	d1, err := ParseDesign(src, "top")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDesign(WriteDesign(d1), "top")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := flatSim(d1, "top", nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := flatSim(d2, "top", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a, b := uint64(i*37%256), uint64(i*91%256)
		s1.SetInput("a", a)
		s1.SetInput("b", b)
		s2.SetInput("a", a)
		s2.SetInput("b", b)
		if err := s1.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := s2.Tick(); err != nil {
			t.Fatal(err)
		}
		v1, _ := s1.Peek("q")
		v2, _ := s2.Peek("q")
		if v1 != v2 {
			t.Fatalf("cycle %d: original %x, round-tripped %x", i, v1, v2)
		}
	}
}

// WriteModule renders a module back to Verilog-subset source text. The
// output re-parses to an equivalent module (same structure, elaboration
// and structural hash), which the tests verify by round-trip.
func WriteModule(m *Module) string {
	var sb strings.Builder
	sb.WriteString("module ")
	sb.WriteString(m.Name)

	var publicParams, localParams []Param
	for _, p := range m.Params {
		if p.IsLocal {
			localParams = append(localParams, p)
		} else {
			publicParams = append(publicParams, p)
		}
	}
	if len(publicParams) > 0 {
		sb.WriteString(" #(")
		for i, p := range publicParams {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "parameter %s = %s", p.Name, p.Default)
		}
		sb.WriteString(")")
	}

	sb.WriteString("(")
	for i, p := range m.Ports {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Dir.String())
		if p.IsReg {
			sb.WriteString(" reg")
		}
		sb.WriteString(writeRange(p.Range))
		sb.WriteString(" ")
		sb.WriteString(p.Name)
	}
	sb.WriteString(");\n")

	for _, p := range localParams {
		fmt.Fprintf(&sb, "  localparam %s = %s;\n", p.Name, p.Default)
	}
	for _, n := range m.Nets {
		kind := "wire"
		if n.IsReg {
			kind = "reg"
		}
		fmt.Fprintf(&sb, "  %s%s %s;\n", kind, writeRange(n.Range), n.Name)
	}
	for _, inst := range m.Instances {
		sb.WriteString("  ")
		sb.WriteString(inst.ModuleName)
		if len(inst.Params) > 0 {
			sb.WriteString(" #(")
			names := make([]string, 0, len(inst.Params))
			for name := range inst.Params {
				names = append(names, name)
			}
			sort.Strings(names)
			for i, name := range names {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, ".%s(%s)", name, inst.Params[name])
			}
			sb.WriteString(")")
		}
		fmt.Fprintf(&sb, " %s (", inst.Name)
		for i, c := range inst.Conns {
			if i > 0 {
				sb.WriteString(", ")
			}
			key, val := c.Port, c.Expr
			if _, pos := isPositionalKey(key); pos {
				if val != nil {
					sb.WriteString(val.String())
				}
				continue
			}
			if val == nil {
				fmt.Fprintf(&sb, ".%s()", key)
			} else {
				fmt.Fprintf(&sb, ".%s(%s)", key, val)
			}
		}
		sb.WriteString(");\n")
	}
	for _, a := range m.Assigns {
		fmt.Fprintf(&sb, "  assign %s = %s;\n", a.LHS, a.RHS)
	}
	for _, alw := range m.Alwayses {
		edge := "posedge"
		if alw.Negedge {
			edge = "negedge"
		}
		fmt.Fprintf(&sb, "  always @(%s %s) begin\n", edge, alw.Clock)
		for _, sa := range alw.Body {
			sb.WriteString("    ")
			for _, g := range sa.Guard {
				fmt.Fprintf(&sb, "if (%s) ", g)
			}
			fmt.Fprintf(&sb, "%s <= %s;\n", sa.LHS, sa.RHS)
		}
		sb.WriteString("  end\n")
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

// WriteDesign renders every module of a design, top module last (Verilog
// accepts any order; last placement reads naturally).
func WriteDesign(d *Design) string {
	var sb strings.Builder
	names := d.SortedModuleNames()
	for _, n := range names {
		if n == d.Top {
			continue
		}
		sb.WriteString(WriteModule(d.Modules[n]))
		sb.WriteString("\n")
	}
	sb.WriteString(WriteModule(d.Modules[d.Top]))
	return sb.String()
}

func writeRange(r Range) string {
	if r.IsScalar() {
		return ""
	}
	return fmt.Sprintf(" [%s:%s]", r.Msb, r.Lsb)
}
