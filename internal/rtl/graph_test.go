package rtl

import (
	"fmt"
	"testing"

	"mlvfpga/internal/resource"
)

const chainDesign = `
module stage(input clk, input [31:0] d, output reg [31:0] q);
  always @(posedge clk) q <= d + 32'd1;
endmodule
module narrow(input clk, input [31:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d[7:0];
endmodule
module top(input clk, input [31:0] in, output [7:0] out);
  wire [31:0] m1;
  wire [31:0] m2;
  stage  s0 (.clk(clk), .d(in), .q(m1));
  stage  s1 (.clk(clk), .d(m1), .q(m2));
  narrow s2 (.clk(clk), .d(m2), .q(out));
endmodule
`

func TestBasicGraphChain(t *testing.T) {
	d, err := ParseDesign(chainDesign, "top")
	if err != nil {
		t.Fatal(err)
	}
	g := d.BasicGraph(elab(t, d, "top"))
	if len(g.Insts) != 3 {
		t.Fatalf("insts = %d, want 3\n%s", len(g.Insts), g)
	}
	byPath := map[string]int{}
	for i, n := range g.Insts {
		byPath[n.Path] = i
	}
	// s0 -> s1 with 32 bits, s1 -> s2 with 32 bits.
	if bw := g.bandwidth(byPath["s0"], byPath["s1"]); bw != 32 {
		t.Errorf("s0-s1 bandwidth = %d, want 32\n%s", bw, g)
	}
	if bw := g.bandwidth(byPath["s1"], byPath["s2"]); bw != 32 {
		t.Errorf("s1-s2 bandwidth = %d, want 32", bw)
	}
	if bw := g.bandwidth(byPath["s0"], byPath["s2"]); bw != 0 {
		t.Errorf("s0-s2 bandwidth = %d, want 0", bw)
	}
	// Boundary edges exist: in -> s0, s2 -> out, clk -> everyone.
	boundaryIn := 0
	for _, e := range g.Edges {
		if e.From == Boundary {
			boundaryIn++
		}
	}
	if boundaryIn == 0 {
		t.Error("no boundary edges found")
	}
}

func TestBasicGraphHierarchical(t *testing.T) {
	// Basic modules nested two levels deep must still appear as nodes with
	// connectivity traced through the intermediate module's ports.
	d, err := ParseDesign(`
		module leafm(input [15:0] a, output [15:0] y); assign y = a ^ 16'hFFFF; endmodule
		module mid(input [15:0] p, output [15:0] q);
		  wire [15:0] w;
		  leafm l0 (.a(p), .y(w));
		  leafm l1 (.a(w), .y(q));
		endmodule
		module top(input [15:0] x, output [15:0] z);
		  mid m (.p(x), .q(z));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	g := d.BasicGraph(elab(t, d, "top"))
	if len(g.Insts) != 2 {
		t.Fatalf("insts = %d, want 2\n%s", len(g.Insts), g)
	}
	if g.Insts[0].Path != "m.l0" || g.Insts[1].Path != "m.l1" {
		t.Errorf("paths = %q, %q", g.Insts[0].Path, g.Insts[1].Path)
	}
	if bw := g.bandwidth(0, 1); bw != 16 {
		t.Errorf("l0-l1 bandwidth = %d, want 16\n%s", bw, g)
	}
}

func TestBasicGraphTopIsBasic(t *testing.T) {
	d, err := ParseDesign("module solo(input a, output y); assign y = a; endmodule", "solo")
	if err != nil {
		t.Fatal(err)
	}
	g := d.BasicGraph(elab(t, d, "solo"))
	if len(g.Insts) != 1 || len(g.Edges) != 0 {
		t.Errorf("solo graph = %s", g)
	}
}

func TestBasicGraphFanout(t *testing.T) {
	d, err := ParseDesign(`
		module producer(input [7:0] a, output [7:0] y); assign y = a; endmodule
		module consumer(input [7:0] a, output [7:0] y); assign y = ~a; endmodule
		module top(input [7:0] x, output [7:0] z1, output [7:0] z2);
		  wire [7:0] w;
		  producer p (.a(x), .y(w));
		  consumer c1 (.a(w), .y(z1));
		  consumer c2 (.a(w), .y(z2));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	g := d.BasicGraph(elab(t, d, "top"))
	byPath := map[string]int{}
	for i, n := range g.Insts {
		byPath[n.Path] = i
	}
	if bw := g.bandwidth(byPath["p"], byPath["c1"]); bw != 8 {
		t.Errorf("p-c1 = %d, want 8", bw)
	}
	if bw := g.bandwidth(byPath["p"], byPath["c2"]); bw != 8 {
		t.Errorf("p-c2 = %d, want 8", bw)
	}
	// The two consumers share an elaboration, visible to the decomposer.
	if g.Insts[byPath["c1"]].Elab != g.Insts[byPath["c2"]].Elab {
		t.Error("identical consumers must share an elaboration")
	}
}

func TestEstimatePrimitives(t *testing.T) {
	d, err := ParseDesign(`
		module macro(input [17:0] a, input [17:0] b, output [47:0] p, input clk);
		  DSP48E2 mul (.A(a), .B(b), .P(p), .CLK(clk));
		  RAMB36E2 mem0 ();
		  RAMB18E2 mem1 ();
		  URAM288 big ();
		  FDRE ff ();
		  LUT6 l ();
		  CARRY8 cy ();
		endmodule`, "macro")
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.EstimateResources(elab(t, d, "macro"))
	if err != nil {
		t.Fatal(err)
	}
	want := resource.Vector{DSPs: 1, BRAMKb: 54, URAMKb: 288, DFFs: 1, LUTs: 9}
	if got != want {
		t.Errorf("EstimateResources = %v, want %v", got, want)
	}
}

func TestEstimateBehavioral(t *testing.T) {
	d, err := ParseDesign(`
		module m(input clk, input [15:0] a, input [15:0] b, output reg [15:0] q);
		  wire [15:0] sum;
		  assign sum = a + b;
		  always @(posedge clk) q <= sum;
		endmodule`, "m")
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.EstimateResources(elab(t, d, "m"))
	if err != nil {
		t.Fatal(err)
	}
	if got.DFFs != 16 {
		t.Errorf("DFFs = %d, want 16", got.DFFs)
	}
	if got.LUTs < 16 {
		t.Errorf("LUTs = %d, want >= 16 for a 16-bit adder", got.LUTs)
	}
	if got.DSPs != 0 {
		t.Errorf("DSPs = %d, want 0", got.DSPs)
	}
}

func TestEstimateMultiplierUsesDSP(t *testing.T) {
	d, err := ParseDesign(`
		module mul(input [35:0] a, input [17:0] b, output [53:0] p);
		  assign p = a * b;
		endmodule`, "mul")
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.EstimateResources(elab(t, d, "mul"))
	if err != nil {
		t.Fatal(err)
	}
	if got.DSPs != 2 { // ceil(36/18) * ceil(18/18)
		t.Errorf("DSPs = %d, want 2", got.DSPs)
	}
}

func TestEstimateHierarchySums(t *testing.T) {
	d, err := ParseDesign(`
		module leafm(input clk, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) q <= d;
		endmodule
		module top(input clk, input [7:0] x, output [7:0] y);
		  wire [7:0] w;
		  leafm a (.clk(clk), .d(x), .q(w));
		  leafm b (.clk(clk), .d(w), .q(y));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	top, err := d.EstimateResources(elab(t, d, "top"))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := d.EstimateResources(elab(t, d, "leafm"))
	if err != nil {
		t.Fatal(err)
	}
	if top != leaf.Scale(2) {
		t.Errorf("top = %v, want 2x leaf = %v", top, leaf.Scale(2))
	}
}

func TestPrimitiveCost(t *testing.T) {
	if v, ok := PrimitiveCost("LUT3"); !ok || v.LUTs != 1 {
		t.Errorf("LUT3 = %v, %v", v, ok)
	}
	if _, ok := PrimitiveCost("LUT9"); ok {
		t.Error("LUT9 must be unknown")
	}
	if _, ok := PrimitiveCost("mystery_ip"); ok {
		t.Error("unknown blackbox must report not-known")
	}
}

// bandwidth sums the bits of all edges between nodes a and b (either
// direction).
func (g *BasicGraph) bandwidth(a, b int) int {
	total := 0
	for _, e := range g.Edges {
		if (e.From == a && e.To == b) || (e.From == b && e.To == a) {
			total += e.Bits
		}
	}
	return total
}

// String renders the graph for test failures.
func (g *BasicGraph) String() string {
	s := fmt.Sprintf("BasicGraph{%d insts, %d edges}\n", len(g.Insts), len(g.Edges))
	for i, n := range g.Insts {
		s += fmt.Sprintf("  [%d] %s : %s\n", i, n.Path, n.Elab.Key)
	}
	for _, e := range g.Edges {
		s += fmt.Sprintf("  %d -> %d (%d bits)\n", e.From, e.To, e.Bits)
	}
	return s
}
