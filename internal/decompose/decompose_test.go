package decompose

import (
	"errors"
	"testing"

	"mlvfpga/internal/rtl"
	"mlvfpga/internal/softblock"
)

func design(t *testing.T, src, top string) *rtl.Design {
	t.Helper()
	d, err := rtl.ParseDesign(src, top)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// simdDesign: a controller plus four identical processing elements fed by
// the controller and writing back to it — the canonical SIMD shape. The
// decomposer must produce a data-parallel root of four leaves.
const simdDesign = `
module ctrl(input clk, input [31:0] host_in, output [31:0] pe_cmd, input [31:0] pe_stat, output [31:0] host_out);
  reg [31:0] state;
  always @(posedge clk) state <= host_in + pe_stat;
  assign pe_cmd = state;
  assign host_out = state;
endmodule

module pe(input clk, input [31:0] cmd, output [31:0] stat);
  reg [31:0] acc;
  always @(posedge clk) acc <= acc + cmd;
  assign stat = acc;
endmodule

module top(input clk, input [31:0] host_in, output [31:0] host_out);
  wire [31:0] cmd;
  wire [31:0] s0;
  wire [31:0] s1;
  wire [31:0] s2;
  wire [31:0] s3;
  wire [31:0] merged;
  ctrl c (.clk(clk), .host_in(host_in), .pe_cmd(cmd), .pe_stat(merged), .host_out(host_out));
  pe p0 (.clk(clk), .cmd(cmd), .stat(s0));
  pe p1 (.clk(clk), .cmd(cmd), .stat(s1));
  pe p2 (.clk(clk), .cmd(cmd), .stat(s2));
  pe p3 (.clk(clk), .cmd(cmd), .stat(s3));
  assign merged = s0 | s1 | s2 | s3;
endmodule
`

func TestDecomposeSIMD(t *testing.T) {
	d := design(t, simdDesign, "top")
	res, err := Decompose(d, "top", nil, Options{ControlModules: []string{"ctrl"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc := res.Accelerator
	if err := acc.Validate(); err != nil {
		t.Fatal(err)
	}
	if acc.Data.Kind != softblock.DataParallel {
		t.Fatalf("root kind = %v, want data parallel\n%s", acc.Data.Kind, acc.Data)
	}
	if len(acc.Data.Children) != 4 {
		t.Fatalf("root children = %d, want 4\n%s", len(acc.Data.Children), acc.Data)
	}
	for _, c := range acc.Data.Children {
		if c.Kind != softblock.Leaf {
			t.Errorf("child kind = %v, want leaf", c.Kind)
		}
	}
	if res.Stats.ControlModules != 1 {
		t.Errorf("control modules = %d, want 1", res.Stats.ControlModules)
	}
	if res.Stats.DataMerges == 0 {
		t.Error("expected data-parallel merges")
	}
	if acc.Control.Resources.LUTs == 0 {
		t.Error("control block must carry the controller's resources")
	}
}

// chainDesign: a 3-stage pipeline of distinct modules.
const pipeDesign = `
module ctrl(input clk, input [31:0] i, output [31:0] o);
  assign o = i;
endmodule
module s1(input clk, input [63:0] d, output [63:0] q);
  reg [63:0] r;
  always @(posedge clk) r <= d + 64'd1;
  assign q = r;
endmodule
module s2(input clk, input [63:0] d, output [31:0] q);
  reg [31:0] r;
  always @(posedge clk) r <= d[31:0] ^ d[63:32];
  assign q = r;
endmodule
module s3(input clk, input [31:0] d, output [31:0] q);
  reg [31:0] r;
  always @(posedge clk) r <= r + d;
  assign q = r;
endmodule
module top(input clk, input [63:0] in, output [31:0] out);
  wire [63:0] w1;
  wire [31:0] w2;
  wire [31:0] w3;
  wire [31:0] cfg;
  ctrl c (.clk(clk), .i(w3), .o(cfg));
  s1 a (.clk(clk), .d(in), .q(w1));
  s2 b (.clk(clk), .d(w1), .q(w2));
  s3 e (.clk(clk), .d(w2), .q(w3));
  assign out = w3;
endmodule
`

func TestDecomposePipeline(t *testing.T) {
	d := design(t, pipeDesign, "top")
	res, err := Decompose(d, "top", nil, Options{ControlModules: []string{"ctrl"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Accelerator.Data
	if root.Kind != softblock.Pipeline {
		t.Fatalf("root kind = %v, want pipeline\n%s", root.Kind, root)
	}
	if len(root.Children) != 3 {
		t.Fatalf("pipeline stages = %d, want 3\n%s", len(root.Children), root)
	}
	// Stage bandwidths: s1->s2 is 64 bits, s2->s3 is 32 bits.
	if root.StageBits[0] != 64 || root.StageBits[1] != 32 {
		t.Errorf("stage bits = %v, want [64 32]", root.StageBits)
	}
	if res.Stats.PipeMerges == 0 {
		t.Error("expected chain contractions")
	}
}

// simdPipeDesign: Fig. 4c shape — four parallel A-lanes feeding four
// parallel B-lanes pairwise. Must become data(pipeline(A,B) x4).
const simdPipeDesign = `
module ctrl(input clk, input [31:0] i, output [31:0] o);
  assign o = i;
endmodule
module stageA(input clk, input [31:0] d, output [31:0] q);
  reg [31:0] r;
  always @(posedge clk) r <= d + 32'd1;
  assign q = r;
endmodule
module stageB(input clk, input [31:0] d, output [15:0] q);
  reg [15:0] r;
  always @(posedge clk) r <= d[15:0] & d[31:16];
  assign q = r;
endmodule
module lanes(input clk, input [31:0] c0, input [31:0] c1, input [31:0] c2, input [31:0] c3,
             output [15:0] r0, output [15:0] r1, output [15:0] r2, output [15:0] r3);
  wire [31:0] m0;
  wire [31:0] m1;
  wire [31:0] m2;
  wire [31:0] m3;
  stageA a0 (.clk(clk), .d(c0), .q(m0));
  stageA a1 (.clk(clk), .d(c1), .q(m1));
  stageA a2 (.clk(clk), .d(c2), .q(m2));
  stageA a3 (.clk(clk), .d(c3), .q(m3));
  stageB b0 (.clk(clk), .d(m0), .q(r0));
  stageB b1 (.clk(clk), .d(m1), .q(r1));
  stageB b2 (.clk(clk), .d(m2), .q(r2));
  stageB b3 (.clk(clk), .d(m3), .q(r3));
endmodule
module top(input clk, input [31:0] x, output [15:0] y);
  wire [31:0] cfg;
  wire [15:0] q0;
  wire [15:0] q1;
  wire [15:0] q2;
  wire [15:0] q3;
  ctrl c (.clk(clk), .i(x), .o(cfg));
  lanes l (.clk(clk), .c0(cfg), .c1(cfg), .c2(cfg), .c3(cfg),
           .r0(q0), .r1(q1), .r2(q2), .r3(q3));
  assign y = q0 ^ q1 ^ q2 ^ q3;
endmodule
`

func TestDecomposeSIMDPipelines(t *testing.T) {
	d := design(t, simdPipeDesign, "top")
	res, err := Decompose(d, "top", nil, Options{ControlModules: []string{"ctrl"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Accelerator.Data
	if root.Kind != softblock.DataParallel {
		t.Fatalf("root kind = %v, want data\n%s", root.Kind, root)
	}
	if len(root.Children) != 4 {
		t.Fatalf("lanes = %d, want 4\n%s", len(root.Children), root)
	}
	for _, lane := range root.Children {
		if lane.Kind != softblock.Pipeline || len(lane.Children) != 2 {
			t.Fatalf("lane must be a 2-stage pipeline, got:\n%s", root)
		}
		if lane.StageBits[0] != 32 {
			t.Errorf("lane stage bits = %v, want [32]", lane.StageBits)
		}
	}
}

// renamedDesign: the four PEs use two different module names with identical
// logic — only the equivalence checker can unify them.
const renamedDesign = `
module ctrl(input clk, input [31:0] i, output [31:0] o); assign o = i; endmodule
module peA(input clk, input [31:0] cmd, output [31:0] stat);
  reg [31:0] acc;
  always @(posedge clk) acc <= acc + cmd;
  assign stat = acc;
endmodule
module peB(input clk, input [31:0] cmd, output [31:0] stat);
  reg [31:0] total;
  always @(posedge clk) total <= total + cmd;
  assign stat = total;
endmodule
module top(input clk, input [31:0] x, output [31:0] y);
  wire [31:0] cfg;
  wire [31:0] s0;
  wire [31:0] s1;
  ctrl c (.clk(clk), .i(x), .o(cfg));
  peA p0 (.clk(clk), .cmd(cfg), .stat(s0));
  peB p1 (.clk(clk), .cmd(cfg), .stat(s1));
  assign y = s0 + s1;
endmodule
`

func TestDecomposeEquivalenceUnifies(t *testing.T) {
	d := design(t, renamedDesign, "top")
	res, err := Decompose(d, "top", nil, Options{ControlModules: []string{"ctrl"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Accelerator.Data
	if root.Kind != softblock.DataParallel || len(root.Children) != 2 {
		t.Fatalf("renamed PEs not unified:\n%s", root)
	}
	// Both leaves must share a class representative.
	if root.Children[0].ModuleKey != root.Children[1].ModuleKey {
		t.Errorf("class keys differ: %q vs %q",
			root.Children[0].ModuleKey, root.Children[1].ModuleKey)
	}
	if len(res.Classes) != 2 {
		t.Errorf("classes = %v", res.Classes)
	}
}

// intraDesign: a basic module that is a pure array of four identical DSP
// primitives over disjoint port slices — step 2 must split it.
const intraDesign = `
module ctrl(input clk, input [31:0] i, output [31:0] o); assign o = i; endmodule
module simd4(input clk, input [63:0] a, input [63:0] b, output [63:0] p);
  DSP48E2 m0 (.CLK(clk), .A(a[15:0]),  .B(b[15:0]),  .P(p[15:0]));
  DSP48E2 m1 (.CLK(clk), .A(a[31:16]), .B(b[31:16]), .P(p[31:16]));
  DSP48E2 m2 (.CLK(clk), .A(a[47:32]), .B(b[47:32]), .P(p[47:32]));
  DSP48E2 m3 (.CLK(clk), .A(a[63:48]), .B(b[63:48]), .P(p[63:48]));
endmodule
module top(input clk, input [63:0] x, output [63:0] y);
  wire [31:0] cfg;
  ctrl c (.clk(clk), .i(x[31:0]), .o(cfg));
  simd4 s (.clk(clk), .a(x), .b({cfg, cfg}), .p(y));
endmodule
`

func TestDecomposeIntraBlockSplit(t *testing.T) {
	d := design(t, intraDesign, "top")
	res, err := Decompose(d, "top", nil, Options{ControlModules: []string{"ctrl"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IntraBlockSplit != 1 {
		t.Fatalf("intra-block splits = %d, want 1\n%s", res.Stats.IntraBlockSplit, res.Accelerator.Data)
	}
	root := res.Accelerator.Data
	if root.Kind != softblock.DataParallel || len(root.Children) != 4 {
		t.Fatalf("simd4 not split into 4 lanes:\n%s", root)
	}
	// Each lane carries a quarter of the DSPs.
	if root.Children[0].Resources.DSPs != 1 {
		t.Errorf("lane DSPs = %d, want 1", root.Children[0].Resources.DSPs)
	}
}

func TestDecomposeEmptyDataPath(t *testing.T) {
	d := design(t, `
		module only(input clk, input [7:0] a, output [7:0] y); assign y = a; endmodule
		module top(input clk, input [7:0] x, output [7:0] z);
		  only u (.clk(clk), .a(x), .y(z));
		endmodule`, "top")
	_, err := Decompose(d, "top", nil, Options{ControlModules: []string{"only"}})
	if !errors.Is(err, ErrEmptyDataPath) {
		t.Errorf("err = %v, want ErrEmptyDataPath", err)
	}
}

func TestDecomposeNoControlMark(t *testing.T) {
	d := design(t, pipeDesign, "top")
	res, err := Decompose(d, "top", nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accelerator.Control.ModuleKey != "ctrl:unmarked" {
		t.Errorf("control key = %q", res.Accelerator.Control.ModuleKey)
	}
	// ctrl becomes part of the data path; tree must still validate.
	if err := res.Accelerator.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeUnknownTop(t *testing.T) {
	d := design(t, pipeDesign, "top")
	if _, err := Decompose(d, "nothere", nil, Options{}); err == nil {
		t.Error("unknown top must error")
	}
}

// Property-style: decomposition preserves total data-path resources.
func TestDecomposeResourceConservation(t *testing.T) {
	for _, tc := range []struct{ src, top, ctrl string }{
		{simdDesign, "top", "ctrl"},
		{pipeDesign, "top", "ctrl"},
		{simdPipeDesign, "top", "ctrl"},
	} {
		d := design(t, tc.src, tc.top)
		em, err := d.Elaborate(tc.top, nil)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := d.BasicGraph(em)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, bi := range bg.Insts {
			r, err := d.EstimateResources(bi.Elab)
			if err != nil {
				t.Fatal(err)
			}
			want += r.LUTs + r.DFFs + r.DSPs
		}
		res, err := Decompose(d, tc.top, nil, Options{ControlModules: []string{tc.ctrl}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		total := res.Accelerator.Control.Resources.Add(res.Accelerator.Data.Resources)
		got := total.LUTs + total.DFFs + total.DSPs
		if got != want {
			t.Errorf("%s: resources not conserved: got %d, want %d", tc.top, got, want)
		}
	}
}

// reductionDesign implements the Fig. 2c reduction pattern: four mappers
// feed two combiners feeding one root combiner. The two primitive patterns
// must compose to represent it (data-parallel stages chained in a
// pipeline).
const reductionDesign = `
module ctrl(input clk, input [31:0] i, output [31:0] o); assign o = i; endmodule
module mapper(input clk, input [31:0] d, output [31:0] q);
  reg [31:0] r;
  always @(posedge clk) r <= d * d;
  assign q = r;
endmodule
module combiner(input clk, input [31:0] a, input [31:0] b, output [31:0] q);
  reg [31:0] r;
  always @(posedge clk) r <= a + b;
  assign q = r;
endmodule
module top(input clk, input [31:0] x, output [31:0] y);
  wire [31:0] cfg;
  wire [31:0] m0;
  wire [31:0] m1;
  wire [31:0] m2;
  wire [31:0] m3;
  wire [31:0] c0;
  wire [31:0] c1;
  ctrl c (.clk(clk), .i(x), .o(cfg));
  mapper p0 (.clk(clk), .d(cfg), .q(m0));
  mapper p1 (.clk(clk), .d(cfg), .q(m1));
  mapper p2 (.clk(clk), .d(cfg), .q(m2));
  mapper p3 (.clk(clk), .d(cfg), .q(m3));
  combiner r0 (.clk(clk), .a(m0), .b(m1), .q(c0));
  combiner r1 (.clk(clk), .a(m2), .b(m3), .q(c1));
  combiner rt (.clk(clk), .a(c0), .b(c1), .q(y));
endmodule
`

func TestDecomposeReductionPattern(t *testing.T) {
	d := design(t, reductionDesign, "top")
	res, err := Decompose(d, "top", nil, Options{ControlModules: []string{"ctrl"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Accelerator.Data
	if err := res.Accelerator.Validate(); err != nil {
		t.Fatal(err)
	}
	// The reduction must be represented with the two primitive patterns:
	// a pipeline whose stages include the data-parallel mapper wave and
	// the data-parallel combiner wave (Fig. 2c).
	if root.Kind != softblock.Pipeline {
		t.Fatalf("reduction root = %v, want pipeline composition\n%s", root.Kind, root)
	}
	dataStages := 0
	for _, st := range root.Children {
		if st.Kind == softblock.DataParallel {
			dataStages++
		}
	}
	if dataStages < 2 {
		t.Errorf("reduction must contain >= 2 data-parallel waves, got %d\n%s", dataStages, root)
	}
	if root.NumLeaves() != 7 {
		t.Errorf("leaves = %d, want 7 (4 mappers + 3 combiners)\n%s", root.NumLeaves(), root)
	}
}

// cacheDesign: three lanes with identical interfaces; laneA is functionally
// but not structurally identical to laneB, and laneC repeats laneB's
// structure under a new name. Classifying laneB against the laneA
// representative needs one simulation; classifying laneC lands on the same
// ordered hash pair and must come out of the oracle's memo cache.
const cacheDesign = `
module ctrl(input clk, input [7:0] i, output [7:0] o); assign o = i; endmodule
module laneA(input clk, input [7:0] cmd, output [8:0] stat); assign stat = {1'b0,cmd} + {1'b0,cmd}; endmodule
module laneB(input clk, input [7:0] cmd, output [8:0] stat); assign stat = {cmd, 1'b0}; endmodule
module laneC(input clk, input [7:0] cmd, output [8:0] stat); assign stat = {cmd, 1'b0}; endmodule
module top(input clk, input [7:0] x, output [8:0] y);
  wire [7:0] cfg;
  wire [8:0] s0;
  wire [8:0] s1;
  wire [8:0] s2;
  ctrl c (.clk(clk), .i(x), .o(cfg));
  laneA p0 (.clk(clk), .cmd(cfg), .stat(s0));
  laneB p1 (.clk(clk), .cmd(cfg), .stat(s1));
  laneC p2 (.clk(clk), .cmd(cfg), .stat(s2));
  assign y = s0 + s1 + s2;
endmodule
`

func TestDecomposeEquivCacheHits(t *testing.T) {
	d := design(t, cacheDesign, "top")
	res, err := Decompose(d, "top", nil, Options{ControlModules: []string{"ctrl"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Accelerator.Data
	if root.Kind != softblock.DataParallel || len(root.Children) != 3 {
		t.Fatalf("lanes not unified:\n%s", root)
	}
	for _, ch := range root.Children[1:] {
		if ch.ModuleKey != root.Children[0].ModuleKey {
			t.Errorf("class keys differ: %q vs %q", ch.ModuleKey, root.Children[0].ModuleKey)
		}
	}
	st := res.EquivStats
	if st.SimRuns != 1 {
		t.Errorf("SimRuns = %d, want exactly 1 (laneB vs laneA)", st.SimRuns)
	}
	if st.CacheHits < 1 {
		t.Errorf("CacheHits = %d, want >= 1 (laneC must reuse the laneB verdict)", st.CacheHits)
	}
	if st.Queries < st.StructuralHits+st.CacheHits+st.SimRuns {
		t.Errorf("inconsistent counters: %+v", st)
	}
}
