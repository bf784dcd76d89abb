package core

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"mlvfpga/internal/decompose"
	"mlvfpga/internal/partition"
	"mlvfpga/internal/softblock"
)

func TestCompileAcceleratorEndToEnd(t *testing.T) {
	c, err := CompileAccelerator(Options{Tiles: 8, PartitionIterations: 2, Seed: 1, PatternAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Accelerator.Data.Kind != softblock.DataParallel {
		t.Errorf("data root = %v", c.Accelerator.Data.Kind)
	}
	if len(c.Accelerator.Data.Children) != 8 {
		t.Errorf("lanes = %d, want 8", len(c.Accelerator.Data.Children))
	}
	if c.Partition.MaxPieces() != 4 {
		t.Errorf("max pieces = %d, want 4", c.Partition.MaxPieces())
	}
	// Both device types must host at least the smaller pieces.
	if len(c.Images["XCVU37P"]) == 0 {
		t.Error("no XCVU37P images")
	}
	if len(c.Images["XCKU115"]) == 0 {
		t.Error("no XCKU115 images")
	}
	if c.DecomposeTime <= 0 || c.PartitionTime < 0 || c.HSCompileTime <= 0 {
		t.Errorf("timing: decompose %v partition %v hs %v",
			c.DecomposeTime, c.PartitionTime, c.HSCompileTime)
	}
	// The added steps are negligible next to place-and-route (§4.3: <1%).
	added := c.DecomposeTime + c.PartitionTime
	if float64(added) > 0.01*float64(c.HSCompileTime) {
		t.Errorf("decompose+partition (%v) exceeds 1%% of HS compile (%v)", added, c.HSCompileTime)
	}
}

func TestCompiledImageCalibration(t *testing.T) {
	c, err := CompileAccelerator(Options{Tiles: 4, PartitionIterations: 1, Seed: 1, PatternAware: true})
	if err != nil {
		t.Fatal(err)
	}
	for dev, images := range c.Images {
		rootSeen := false
		for _, pi := range images {
			if pi.Image.Blocks < 1 {
				t.Errorf("%s piece %s: %d blocks", dev, pi.Image.PieceID, pi.Image.Blocks)
			}
			if pi.WithControl {
				rootSeen = true
			}
			if pi.Lanes < 1 || pi.Lanes > 4 {
				t.Errorf("%s piece covers %d lanes", dev, pi.Lanes)
			}
		}
		if !rootSeen {
			t.Errorf("%s: no piece hosts the control block", dev)
		}
	}
}

func TestPatternAwareHopsBeatNaive(t *testing.T) {
	aware, err := CompileAccelerator(Options{Tiles: 8, PartitionIterations: 0, Seed: 1, PatternAware: true})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := CompileAccelerator(Options{Tiles: 8, PartitionIterations: 0, Seed: 1, PatternAware: false})
	if err != nil {
		t.Fatal(err)
	}
	a := aware.Images["XCVU37P"][0].Image
	n := naive.Images["XCVU37P"][0].Image
	if a.Hops >= n.Hops {
		t.Errorf("pattern-aware hops %d must beat naive %d", a.Hops, n.Hops)
	}
}

func TestInstanceCatalog(t *testing.T) {
	counts := []int{1, 4}
	cat, err := InstanceCatalog(counts, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 2 {
		t.Fatalf("catalog size = %d", len(cat))
	}
	if cat[1].Opts.Tiles != 4 {
		t.Errorf("catalog order wrong")
	}
	if len(DefaultTileCounts()) != 10 {
		t.Errorf("default catalog must list 10 instances (§4.3)")
	}
}

func TestCompileAcceleratorErrors(t *testing.T) {
	if _, err := CompileAccelerator(Options{Tiles: 0}); err == nil {
		t.Error("0 tiles must fail")
	}
	if _, err := CompileAccelerator(Options{Tiles: 2, PartitionIterations: -1}); err == nil {
		t.Error("negative iterations must fail")
	}
	if _, err := InstanceCatalog([]int{0}, 1, 1, nil); err == nil {
		t.Error("bad catalog must fail")
	}
}

func TestCountLanes(t *testing.T) {
	c, err := CompileAccelerator(Options{Tiles: 6, PartitionIterations: 1, Seed: 1, PatternAware: true})
	if err != nil {
		t.Fatal(err)
	}
	root := c.Partition.Root
	if countLanes(root.Block) != 6 {
		t.Errorf("root lanes = %d", countLanes(root.Block))
	}
	if countLanes(root.Left.Block)+countLanes(root.Right.Block) != 6 {
		t.Error("split lanes must sum to 6")
	}
}

// compiledFingerprint serializes everything deterministic about a Compiled:
// the decomposed accelerator, the partition tree, every image with its
// modelled compile time, and the decompose stats. The measured wall-clock
// fields (DecomposeTime, PartitionTime) are inherently run-dependent and
// stay out.
func compiledFingerprint(t *testing.T, c *Compiled) string {
	t.Helper()
	blob, err := json.Marshal(struct {
		Accelerator   *softblock.Accelerator
		Partition     *partition.Result
		Images        map[string][]PieceImage
		HSCompile     time.Duration
		DecomposeStat decompose.Stats
	}{c.Accelerator, c.Partition, c.Images, c.HSCompileTime, c.DecomposeStats})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestInstanceCatalogDeterministicAcrossParallelism: the catalog's
// instances compile side by side, and each equals the same instance
// compiled alone on this goroutine, bit for bit.
func TestInstanceCatalogDeterministicAcrossParallelism(t *testing.T) {
	tiles := []int{1, 2, 4, 8}
	cat, err := InstanceCatalog(tiles, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != len(tiles) {
		t.Fatalf("catalog has %d instances, want %d", len(cat), len(tiles))
	}
	for i, n := range tiles {
		seq, err := CompileAccelerator(Options{Tiles: n, PartitionIterations: 2, Seed: 1, PatternAware: true})
		if err != nil {
			t.Fatal(err)
		}
		if compiledFingerprint(t, cat[i]) != compiledFingerprint(t, seq) {
			t.Errorf("instance %d (tiles=%d) differs from its sequential compile", i, n)
		}
	}
}

// TestCompileAllocations holds the offline flow's allocation diet: one
// cold compile allocates per design, not per token, module, AST node,
// graph edge or name lookup. Tokens are source spans counted before they
// are stored; modules, their items, AST nodes and instance connections
// come from design-wide slabs sized in one pass per parse, and each
// module's names resolve once, at its endmodule, to net indices;
// elaborated modules, their widths (a slice over those indices) and
// children come from slabs sized from the design; the structural hash is
// appended into one reused buffer; the block graph's union-find is one
// array over the nets; the decomposer's graph keeps its edge lists in one
// backing, compares soft blocks by shape without rendering them and makes
// each block id in one allocation; calibration clones each piece into
// one reused slab; and a piece that fits no block of a device type is
// refused with the bare hsvital.ErrNoFit, no message formatted. The
// instance the simulator's layers deploy (1 tile, the rms compiler's
// options) measures about 118 allocations and 83 kB (up to 131 and 85 kB
// under -race), from 152 and 90 kB when widths were a map per module and
// soft blocks compared by rendered string. The 4-tile row, about 202
// allocations and 116 kB (229 and 125 kB under -race), pins the cost per
// tile; the 21-tile row, about 615 and 306 kB (704 and 343 kB), and the
// 64-tile row, about 1,606 and 788 kB (1,909 and 914 kB), were 1,183 and
// 3,575 allocations before, and 621 and 1,636 while each misfit formatted
// its error. The bounds are the -race level plus under 5 %.
func TestCompileAllocations(t *testing.T) {
	for _, tc := range []struct {
		tiles               int
		maxAllocs, maxBytes uint64
	}{
		{1, 137, 89_000},
		{4, 239, 130_000},
		{21, 735, 360_000},
		{64, 2_000, 955_000},
	} {
		opts := Options{Tiles: tc.tiles, PartitionIterations: 2, Seed: 1, PatternAware: true}
		if _, err := CompileAccelerator(opts); err != nil {
			t.Fatal(err)
		}
		allocs, bytes := compileCost(t, opts)
		t.Logf("one %d-tile compile: %d allocations, %d bytes", tc.tiles, allocs, bytes)
		if allocs > tc.maxAllocs || bytes > tc.maxBytes {
			t.Errorf("one %d-tile compile made %d allocations of %d bytes, budget %d and %d",
				tc.tiles, allocs, bytes, tc.maxAllocs, tc.maxBytes)
		}
	}
}

// compileCost measures one compile's mean allocations and bytes over
// five, on one P.
func compileCost(t *testing.T, opts Options) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := CompileAccelerator(opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}
