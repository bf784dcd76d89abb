// Tests over the generated accelerator that need bwrtl and decompose,
// which import rtl.
package rtl_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"mlvfpga/internal/bwrtl"
	"mlvfpga/internal/decompose"
	"mlvfpga/internal/rtl"
)

var update = flag.Bool("update", false, "rewrite testdata/structural_hash.golden")

// hashZoo exercises every expression form and item kind the structural
// hash renders: parameters folded to constants, a net shadowing a
// parameter, all unary and binary operators, selects, concatenation,
// replication, guarded and negedge processes, positional and named
// connections, an unconnected port and a parameterized primitive.
const hashZoo = `
module leaf #(parameter W = 8) (input clk, input [W-1:0] a, input [W-1:0] b, output [W-1:0] y, output reg [W-1:0] q);
  localparam H = W / 2;
  wire [W-1:0] t;
  wire [W-1:0] H2;
  assign t = (a & b) | (a ^ ~b) + {H{2'b01}} - (a << 1) * (b >> H) / 8'd3 % W;
  assign H2 = {a[H-1:0], b[W-1:H]};
  assign y = (a == b) ? t : ((a != b) && (a < b) || (a > b) ? H2 : {W{a[0]}});
  always @(posedge clk) begin
    if (a <= b) q <= t;
    else if (!(a >= b)) q <= -a;
    else q <= {&a, |b, ^t, a[W-2:1]};
  end
endmodule
module top(input clk, input rst, input [15:0] x, output [15:0] z, output [15:0] r);
  wire [15:0] w;
  reg s;
  leaf #(.W(16)) u0 (.clk(clk), .a(x), .b(w), .y(z), .q(r));
  leaf #(.W(16)) u1 (clk, w, x, w, w);
  leaf u2 (.clk(clk), .a(x[7:0]), .b(x[15:8]), .y(), .q());
  DSP48E2 #(.AREG(1), .BREG(2 + 1)) d0 (.CLK(clk), .A(x[7:0]), .B(), .P(w));
  always @(negedge clk) s <= rst;
endmodule`

// hashGolden renders, per design, every elaboration's structural hash in
// key order, then decompose's class keys and equivalence counters.
func hashGolden(t *testing.T) string {
	var sb strings.Builder
	type src struct{ name, text, top string }
	var srcs []src
	for _, tiles := range []int{1, 2, 4} {
		text, err := bwrtl.Generate(bwrtl.Profile{Tiles: tiles, UseURAM: true})
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src{fmt.Sprintf("bwrtl tiles=%d", tiles), text, bwrtl.TopModule})
	}
	srcs = append(srcs, src{"zoo", hashZoo, "top"})
	for _, s := range srcs {
		fmt.Fprintf(&sb, "# %s\n", s.name)
		d, err := rtl.ParseDesign(s.text, s.top)
		if err != nil {
			t.Fatal(err)
		}
		em, err := d.Elaborate(s.top, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := map[string]*rtl.ElabModule{}
		var walk func(*rtl.ElabModule)
		walk = func(em *rtl.ElabModule) {
			if _, seen := all[em.Key]; seen {
				return
			}
			all[em.Key] = em
			for _, c := range em.Children {
				if c.Elab != nil {
					walk(c.Elab)
				}
			}
		}
		walk(em)
		keys := make([]string, 0, len(all))
		for k := range all {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "hash %s %s\n", k, d.StructuralHash(all[k]))
		}
		if s.top != bwrtl.TopModule {
			continue
		}
		res, err := decompose.Decompose(d, s.top, nil, decompose.Options{ControlModules: bwrtl.ControlModules(), Seed: 1, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		keys = keys[:0]
		for k := range res.Classes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "class %s %s\n", k, res.Classes[k])
		}
		fmt.Fprintf(&sb, "equiv %+v\n", res.EquivStats)
	}
	return sb.String()
}

// TestStructuralHashGolden pins the structural hash of every elaborated
// module of the 1-, 2- and 4-tile accelerators and of hashZoo, plus the
// class keys and oracle counters decompose derives from them. The hashed
// text also seeds random-simulation equivalence (pairSeed), so it must not
// change byte for byte; run with -update only for an intended format
// change.
func TestStructuralHashGolden(t *testing.T) {
	got := hashGolden(t)
	const path = "testdata/structural_hash.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("structural hashes differ from %s:\n%s", path, got)
	}
}

// The generated accelerator must survive an RTL write/re-parse round trip
// and still decompose to the same tree (exercises the writer across every
// construct the generator emits).
func TestWriterRoundTripDecomposesSame(t *testing.T) {
	src, err := bwrtl.Generate(bwrtl.Profile{Tiles: 3, UseURAM: true})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := rtl.ParseDesign(src, bwrtl.TopModule)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := rtl.ParseDesign(rtl.WriteDesign(d1), bwrtl.TopModule)
	if err != nil {
		t.Fatalf("rendered accelerator does not re-parse: %v", err)
	}
	opts := decompose.Options{ControlModules: bwrtl.ControlModules(), Seed: 1}
	r1, err := decompose.Decompose(d1, bwrtl.TopModule, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := decompose.Decompose(d2, bwrtl.TopModule, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Accelerator.Data.Signature() != r2.Accelerator.Data.Signature() {
		t.Errorf("decomposition changed after round trip:\n%s\nvs\n%s",
			r1.Accelerator.Data, r2.Accelerator.Data)
	}
}
