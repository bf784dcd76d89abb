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
	"mlvfpga/internal/softblock"
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
		res, err := decompose.Decompose(d, s.top, nil, decompose.Options{ControlModules: bwrtl.ControlModules(), Seed: 1})
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
	if !softblock.SameShape(r1.Accelerator.Data, r2.Accelerator.Data) {
		t.Errorf("decomposition changed after round trip:\n%s\nvs\n%s",
			r1.Accelerator.Data, r2.Accelerator.Data)
	}
}

// TestRenamingInvariance renames every instance and every internal wire
// of the generated accelerator, writes and re-parses it, and decomposes
// it: names are no part of a design's structure, so the soft-block tree
// keeps its shape, block ids and kinds, and every elaborated module its
// structural hash.
func TestRenamingInvariance(t *testing.T) {
	opts := decompose.Options{ControlModules: bwrtl.ControlModules(), Seed: 1}
	for _, tiles := range []int{1, 4, 21} {
		src, err := bwrtl.Generate(bwrtl.Profile{Tiles: tiles, UseURAM: true})
		if err != nil {
			t.Fatal(err)
		}
		orig, err := rtl.ParseDesign(src, bwrtl.TopModule)
		if err != nil {
			t.Fatal(err)
		}
		renamed, err := rtl.ParseDesign(src, bwrtl.TopModule)
		if err != nil {
			t.Fatal(err)
		}
		wires := 0
		for _, m := range renamed.Modules {
			wires += renameInternals(m)
		}
		if wires == 0 {
			t.Fatalf("%d tiles: no internal wire to rename", tiles)
		}
		renamed, err = rtl.ParseDesign(rtl.WriteDesign(renamed), bwrtl.TopModule)
		if err != nil {
			t.Fatalf("%d tiles: renamed design does not re-parse: %v", tiles, err)
		}

		r1, err := decompose.Decompose(orig, bwrtl.TopModule, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := decompose.Decompose(renamed, bwrtl.TopModule, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !softblock.SameShape(r1.Accelerator.Data, r2.Accelerator.Data) {
			t.Errorf("%d tiles: renaming changed the tree:\n%s\nvs\n%s", tiles, r1.Accelerator.Data, r2.Accelerator.Data)
		}
		if a, b := idsAndKinds(r1.Accelerator), idsAndKinds(r2.Accelerator); a != b {
			t.Errorf("%d tiles: renaming changed the block ids or kinds:\n%s\nvs\n%s", tiles, a, b)
		}

		e1, err := orig.Elaborate(bwrtl.TopModule, nil)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := renamed.Elaborate(bwrtl.TopModule, nil)
		if err != nil {
			t.Fatal(err)
		}
		h1, h2 := map[string]string{}, map[string]string{}
		hashAll(orig, e1, h1)
		hashAll(renamed, e2, h2)
		if len(h1) != len(h2) {
			t.Fatalf("%d tiles: %d elaborations, %d after renaming", tiles, len(h1), len(h2))
		}
		for key, h := range h1 {
			if h2[key] != h {
				t.Errorf("%d tiles: %s hashes %s, %s after renaming", tiles, key, h, h2[key])
			}
		}
	}
}

// renameInternals renames m's instances and the nets that are not ports,
// with every reference to them, and returns how many nets it renamed.
func renameInternals(m *rtl.Module) int {
	names := make([]string, len(m.Ports)+len(m.Nets))
	for i := range m.Nets {
		names[len(m.Ports)+i] = fmt.Sprintf("renamed_w%d", i)
		m.Nets[i].Name = names[len(m.Ports)+i]
	}
	for _, a := range m.Assigns {
		renameIdents(names, a.LHS, a.RHS)
	}
	for i := range m.Alwayses {
		alw := &m.Alwayses[i]
		if alw.ClockNet >= 0 && names[alw.ClockNet] != "" {
			alw.Clock = names[alw.ClockNet]
		}
		for _, sa := range alw.Body {
			renameIdents(names, sa.Guard...)
			renameIdents(names, sa.LHS, sa.RHS)
		}
	}
	for i := range m.Instances {
		inst := &m.Instances[i]
		inst.Name = fmt.Sprintf("renamed_u%d", i)
		for _, c := range inst.Conns {
			renameIdents(names, c.Expr)
		}
	}
	return len(m.Nets)
}

// renameIdents gives each Ident in es that reads a net with a new name
// in names (indexed by Ident.Net) that name.
func renameIdents(names []string, es ...rtl.Expr) {
	for _, e := range es {
		switch v := e.(type) {
		case *rtl.Ident:
			if v.Net >= 0 && names[v.Net] != "" {
				v.Name = names[v.Net]
			}
		case *rtl.Unary:
			renameIdents(names, v.X)
		case *rtl.Binary:
			renameIdents(names, v.L, v.R)
		case *rtl.Cond:
			renameIdents(names, v.If, v.Then, v.Else)
		case *rtl.Index:
			renameIdents(names, v.X, v.At)
		case *rtl.Slice:
			renameIdents(names, v.X, v.Msb, v.Lsb)
		case *rtl.Concat:
			renameIdents(names, v.Parts...)
		case *rtl.Repl:
			renameIdents(names, v.Count, v.X)
		}
	}
}

// idsAndKinds lists an accelerator's blocks, control first, as id:kind
// in depth-first order.
func idsAndKinds(acc *softblock.Accelerator) string {
	var sb strings.Builder
	var walk func(b *softblock.Block)
	walk = func(b *softblock.Block) {
		fmt.Fprintf(&sb, "%s:%s ", b.ID, b.Kind)
		for _, c := range b.Children {
			walk(c)
		}
	}
	walk(acc.Control)
	walk(acc.Data)
	return sb.String()
}

// hashAll records the structural hash of em and of every elaboration
// below it, by key.
func hashAll(d *rtl.Design, em *rtl.ElabModule, out map[string]string) {
	if _, seen := out[em.Key]; seen {
		return
	}
	out[em.Key] = d.StructuralHash(em)
	for _, c := range em.Children {
		if c.Elab != nil {
			hashAll(d, c.Elab, out)
		}
	}
}
