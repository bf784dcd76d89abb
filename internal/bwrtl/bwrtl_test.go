package bwrtl

import (
	"testing"

	"mlvfpga/internal/decompose"
	"mlvfpga/internal/rtl"
	"mlvfpga/internal/softblock"
)

func generate(t *testing.T, p Profile) *rtl.Design {
	t.Helper()
	src, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.ParseDesign(src, TopModule)
	if err != nil {
		t.Fatalf("generated RTL does not parse and validate: %v", err)
	}
	return d
}

// TestGenerateParses: every instance size the catalog compiles (1..21)
// passes the frontend, port-connection check included.
func TestGenerateParses(t *testing.T) {
	for tiles := 1; tiles <= 21; tiles++ {
		for _, uram := range []bool{true, false} {
			generate(t, Profile{Tiles: tiles, UseURAM: uram})
		}
	}
}

func TestGenerateBounds(t *testing.T) {
	if _, err := Generate(Profile{Tiles: 0}); err == nil {
		t.Error("0 tiles must fail")
	}
	if _, err := Generate(Profile{Tiles: 100}); err == nil {
		t.Error("100 tiles must fail")
	}
}

func TestBasicModules(t *testing.T) {
	d := generate(t, Profile{Tiles: 2, UseURAM: true})
	for _, want := range []string{"instr_decoder", "sequencer", "fp16_to_bfp",
		"vector_regfile", "mvm_tile", "accum_unit", "mfu"} {
		if m := d.Modules[want]; m == nil || !m.IsBasic(d.IsPrimitive) {
			t.Errorf("module %s must be basic", want)
		}
	}
}

func TestURAMParameterization(t *testing.T) {
	withURAM := generate(t, Profile{Tiles: 3, UseURAM: true})
	noURAM := generate(t, Profile{Tiles: 3, UseURAM: false})
	resU := estimateTop(t, withURAM)
	resB := estimateTop(t, noURAM)
	if resU.URAMKb == 0 {
		t.Error("URAM profile has no URAM")
	}
	if resB.URAMKb != 0 {
		t.Error("BRAM-only profile uses URAM")
	}
	if resB.BRAMKb <= resU.BRAMKb {
		t.Error("BRAM-only profile must compensate with more BRAM")
	}
	if resU.DSPs != resB.DSPs {
		t.Errorf("DSP count must not depend on memory choice: %d vs %d", resU.DSPs, resB.DSPs)
	}
}

func estimateTop(t *testing.T, d *rtl.Design) (v struct {
	LUTs, DFFs, BRAMKb, URAMKb, DSPs int64
}) {
	t.Helper()
	em, err := d.Elaborate(TopModule, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.EstimateResources(em)
	if err != nil {
		t.Fatal(err)
	}
	v.LUTs, v.DFFs, v.BRAMKb, v.URAMKb, v.DSPs = res.LUTs, res.DFFs, res.BRAMKb, res.URAMKb, res.DSPs
	return v
}

func TestResourcesScaleWithTiles(t *testing.T) {
	r2 := estimateTop(t, generate(t, Profile{Tiles: 2, UseURAM: true}))
	r4 := estimateTop(t, generate(t, Profile{Tiles: 4, UseURAM: true}))
	// 18 DSPs per slice (16 MVM + 2 MFU).
	if r4.DSPs-r2.DSPs != 36 {
		t.Errorf("DSP delta for 2 extra tiles = %d, want 36", r4.DSPs-r2.DSPs)
	}
	if r4.URAMKb-r2.URAMKb != 2*288 {
		t.Errorf("URAM delta = %d, want 576", r4.URAMKb-r2.URAMKb)
	}
}

// The headline integration check: the generated design decomposes into the
// Fig. 9 tree — a control block holding decoder/sequencer/converter/VRF,
// and a data-parallel root of NumTiles pipeline slices.
func TestDecomposesToFig9Tree(t *testing.T) {
	for _, tiles := range []int{2, 4, 8} {
		d := generate(t, Profile{Tiles: tiles, UseURAM: true})
		res, err := decompose.Decompose(d, TopModule, nil, decompose.Options{
			ControlModules: ControlModules(),
			Seed:           1,
		})
		if err != nil {
			t.Fatalf("tiles=%d: %v", tiles, err)
		}
		root := res.Accelerator.Data
		if root.Kind != softblock.DataParallel {
			t.Fatalf("tiles=%d: root kind = %v, want data parallel\n%s", tiles, root.Kind, root)
		}
		if len(root.Children) != tiles {
			t.Fatalf("tiles=%d: root has %d children\n%s", tiles, len(root.Children), root)
		}
		for _, lane := range root.Children {
			if lane.Kind != softblock.Pipeline {
				t.Fatalf("tiles=%d: lane kind = %v, want pipeline\n%s", tiles, lane.Kind, root)
			}
			// mvm_tile -> accum -> mfu: exactly 3 stages.
			if len(lane.Children) != 3 {
				t.Errorf("tiles=%d: lane has %d stages, want 3", tiles, len(lane.Children))
			}
		}
		if res.Stats.ControlModules != 4 {
			t.Errorf("tiles=%d: control modules = %d, want 4", tiles, res.Stats.ControlModules)
		}
		// Control block carries the instruction buffer + VRF BRAM.
		if res.Accelerator.Control.Resources.BRAMKb < 16*36 {
			t.Errorf("control BRAM = %d Kb", res.Accelerator.Control.Resources.BRAMKb)
		}
	}
}
