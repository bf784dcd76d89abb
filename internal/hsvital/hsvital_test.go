package hsvital

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mlvfpga/internal/resource"
	"mlvfpga/internal/softblock"
)

func TestSpecFor(t *testing.T) {
	v, err := SpecFor("XCVU37P")
	if err != nil || v.BlocksPerDevice != 12 {
		t.Fatalf("SpecFor(XCVU37P) = %+v, %v", v, err)
	}
	k, err := SpecFor("XCKU115")
	if err != nil || k.BlocksPerDevice != 9 {
		t.Fatalf("SpecFor(XCKU115) = %+v, %v", k, err)
	}
	if _, err := SpecFor("XC7A35T"); !errors.Is(err, ErrUnknownSpec) {
		t.Errorf("unknown device = %v", err)
	}
}

// fits reports whether v is within capacity c on every resource class.
func fits(v, c resource.Vector) bool {
	for _, k := range resource.Kinds {
		if v.Get(k) > c.Get(k) {
			return false
		}
	}
	return true
}

// The virtual blocks must physically fit their device.
func TestSpecsFitDevices(t *testing.T) {
	for _, s := range AllSpecs() {
		total := s.BlockUsable.Scale(int64(s.BlocksPerDevice))
		if !fits(total, s.Device.Capacity) {
			t.Errorf("%s: %d virtual blocks demand %v, capacity %v",
				s.Device.Name, s.BlocksPerDevice, total, s.Device.Capacity)
		}
	}
}

// Table 2 reproduction: the calibrated model must match the paper's
// baseline rows.
func TestCalibratedAcceleratorTable2(t *testing.T) {
	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*want
	}
	v37, err := CalibratedAccelerator("XCVU37P", 21)
	if err != nil {
		t.Fatal(err)
	}
	if !within(float64(v37.Resources.LUTs), 610000, 0.01) {
		t.Errorf("BW-V37 LUTs = %d, want ~610k", v37.Resources.LUTs)
	}
	if !within(float64(v37.Resources.BRAMKb), 51.5*1024, 0.02) {
		t.Errorf("BW-V37 BRAM = %d Kb, want ~51.5 Mb", v37.Resources.BRAMKb)
	}
	if !within(float64(v37.Resources.URAMKb), 22.5*1024, 0.02) {
		t.Errorf("BW-V37 URAM = %d Kb, want ~22.5 Mb", v37.Resources.URAMKb)
	}
	if v37.Resources.DSPs != 7517 {
		t.Errorf("BW-V37 DSPs = %d, want 7517", v37.Resources.DSPs)
	}
	if !within(v37.PeakTFLOPS, 36, 0.01) {
		t.Errorf("BW-V37 peak = %.2f TFLOPS, want 36", v37.PeakTFLOPS)
	}
	k115, err := CalibratedAccelerator("XCKU115", 13)
	if err != nil {
		t.Fatal(err)
	}
	if !within(float64(k115.Resources.LUTs), 367000, 0.01) {
		t.Errorf("BW-K115 LUTs = %d, want ~367k", k115.Resources.LUTs)
	}
	if k115.Resources.URAMKb != 0 {
		t.Error("BW-K115 must not use URAM")
	}
	if k115.Resources.DSPs != 5073 {
		t.Errorf("BW-K115 DSPs = %d, want 5073", k115.Resources.DSPs)
	}
	if !within(k115.PeakTFLOPS, 16.7, 0.01) {
		t.Errorf("BW-K115 peak = %.2f TFLOPS, want 16.7", k115.PeakTFLOPS)
	}
}

// The baselines must actually fit their parts.
func TestBaselinesFitDevices(t *testing.T) {
	for _, dev := range []string{"XCVU37P", "XCKU115"} {
		m, err := CalibratedAccelerator(dev, MaxTiles(dev))
		if err != nil {
			t.Fatal(err)
		}
		d, _ := resource.LookupDevice(dev)
		if !fits(m.Resources, d.Capacity) {
			t.Errorf("%s baseline %v exceeds capacity %v", dev, m.Resources, d.Capacity)
		}
	}
}

func TestCalibratedAcceleratorErrors(t *testing.T) {
	if _, err := CalibratedAccelerator("nope", 1); err == nil {
		t.Error("unknown device")
	}
	if _, err := CalibratedAccelerator("XCVU37P", 0); err == nil {
		t.Error("0 tiles")
	}
	if _, err := CalibratedAccelerator("XCVU37P", 22); err == nil {
		t.Error("too many tiles")
	}
	if MaxTiles("nope") != 0 {
		t.Error("unknown device MaxTiles")
	}
}

func TestPerTileAndControl(t *testing.T) {
	ctrl, err := ControlResources("XCVU37P")
	if err != nil {
		t.Fatal(err)
	}
	tile, err := PerTileResources("XCVU37P")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := CalibratedAccelerator("XCVU37P", 5)
	want := ctrl.Add(tile.Scale(5))
	if m.Resources != want {
		t.Errorf("5-tile model = %v, want ctrl+5*tile = %v", m.Resources, want)
	}
	if _, err := ControlResources("x"); err == nil {
		t.Error("unknown device control")
	}
	if _, err := PerTileResources("x"); err == nil {
		t.Error("unknown device tile")
	}
}

func pieceWith(res resource.Vector) *softblock.Block {
	return softblock.NewLeaf("piece", "m", "", res, 64, 64)
}

func TestCompileBlockCount(t *testing.T) {
	spec, _ := SpecFor("XCVU37P")
	// Half a block of everything -> 1 block.
	img, err := Compile(pieceWith(resource.Vector{LUTs: 20000, DSPs: 200}), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if img.Blocks != 1 {
		t.Errorf("Blocks = %d, want 1", img.Blocks)
	}
	// DSP-bound: 3 blocks worth of DSPs.
	img, err = Compile(pieceWith(resource.Vector{LUTs: 1000, DSPs: 1500}), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if img.Blocks != 3 {
		t.Errorf("Blocks = %d, want 3 (DSP-bound)", img.Blocks)
	}
	if img.ClockMHz != 400 || img.Device != "XCVU37P" {
		t.Errorf("image metadata: %+v", img)
	}
}

func TestCompileNoFit(t *testing.T) {
	k115, _ := SpecFor("XCKU115")
	// URAM demand cannot map to KU115.
	if _, err := Compile(pieceWith(resource.Vector{URAMKb: 100}), k115, true); !errors.Is(err, ErrNoFit) {
		t.Errorf("URAM on KU115 = %v, want ErrNoFit", err)
	}
	// More blocks than one device provides.
	if _, err := Compile(pieceWith(resource.Vector{DSPs: 552 * 10}), k115, true); !errors.Is(err, ErrNoFit) {
		t.Errorf("oversized piece = %v, want ErrNoFit", err)
	}
	if _, err := Compile(nil, k115, true); err == nil {
		t.Error("nil piece must error")
	}
	// BlocksFor, which deployment reports, names what the device lacks.
	_, err := BlocksFor(resource.Vector{LUTs: 10, URAMKb: 100}, k115)
	if want := "needs 100 URAM"; !errors.Is(err, ErrNoFit) || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "XCKU115") {
		t.Errorf("BlocksFor(URAM on KU115) = %v, want ErrNoFit naming %q and XCKU115", err, want)
	}
}

func TestBoundaryHopsPatternAware(t *testing.T) {
	spec, _ := SpecFor("XCVU37P")
	// Data-parallel piece whose lanes each fit one virtual block: the
	// pattern-aware mapping pays lane hops (2), the oblivious one pays a
	// hop per block boundary.
	lanes := make([]*softblock.Block, 8)
	for i := range lanes {
		lanes[i] = softblock.NewLeaf(
			string(rune('a'+i)), "lane", "", resource.Vector{LUTs: 30000, DSPs: 400}, 64, 64)
	}
	piece := softblock.NewDataParallel("dp", lanes)
	aware, err := Compile(piece, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Compile(piece, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Blocks != naive.Blocks {
		t.Errorf("block count must not depend on partitioner: %d vs %d", aware.Blocks, naive.Blocks)
	}
	if aware.Hops >= naive.Hops {
		t.Errorf("pattern-aware hops (%d) must beat oblivious hops (%d)", aware.Hops, naive.Hops)
	}
	if aware.Hops != 2 {
		t.Errorf("aware hops = %d, want 2 (lane fits one block)", aware.Hops)
	}
	if naive.Hops != naive.Blocks+1 {
		t.Errorf("naive hops = %d, want blocks+1 = %d", naive.Hops, naive.Blocks+1)
	}
}

func TestModelCompileTime(t *testing.T) {
	m, _ := CalibratedAccelerator("XCVU37P", 21)
	full := ModelCompileTime(m.Resources)
	if full.Hours() < 4 || full.Hours() > 7 {
		t.Errorf("full-device compile = %v, want ~5h", full)
	}
	small := ModelCompileTime(resource.Vector{LUTs: 10000})
	if small >= full || small <= 0 {
		t.Errorf("small compile = %v", small)
	}
}

func TestControllerLifecycle(t *testing.T) {
	c, err := NewController(resource.PaperCluster())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.fpgas) != 4 {
		t.Fatalf("NumDevices = %d", len(c.fpgas))
	}
	// 3x12 + 1x9 = 45 blocks.
	if c.totalFreeBlocks() != 45 {
		t.Errorf("TotalFreeBlocks = %d, want 45", c.totalFreeBlocks())
	}
	if c.Utilization() != 0 {
		t.Errorf("initial utilization = %v", c.Utilization())
	}
	if err := c.Configure(0, 5); err != nil {
		t.Fatal(err)
	}
	if d := c.Devices()[0]; d.FreeBlocks() != 7 {
		t.Errorf("device 0 free = %d, want 7", d.FreeBlocks())
	}
	if c.Utilization() <= 0 {
		t.Error("utilization must rise")
	}
	if err := c.Configure(0, 8); err == nil {
		t.Error("over-allocation must fail")
	}
	if err := c.Release(0, 5); err != nil {
		t.Fatal(err)
	}
	if c.totalFreeBlocks() != 45 {
		t.Errorf("after release = %d", c.totalFreeBlocks())
	}
	if err := c.Release(0, 1); err == nil {
		t.Error("over-release must fail")
	}
	if err := c.Configure(99, 1); err == nil {
		t.Error("bad device id must fail")
	}
	if err := c.Configure(0, 0); err == nil {
		t.Error("zero blocks must fail")
	}
}

func TestControllerErrors(t *testing.T) {
	if _, err := NewController(map[string]int{"bogus": 1}); err == nil {
		t.Error("unknown device in cluster must fail")
	}
	if _, err := NewController(map[string]int{}); err == nil {
		t.Error("empty cluster must fail")
	}
}

// Device ordering: VU37P devices come before the KU115 (ring positions).
func TestControllerOrdering(t *testing.T) {
	c, _ := NewController(resource.PaperCluster())
	devs := c.Devices()
	for i := 0; i < 3; i++ {
		if devs[i].Spec.Device.Name != "XCVU37P" {
			t.Errorf("device %d = %s, want XCVU37P", i, devs[i].Spec.Device.Name)
		}
	}
	if devs[3].Spec.Device.Name != "XCKU115" {
		t.Errorf("device 3 = %s, want XCKU115", devs[3].Spec.Device.Name)
	}
}

// The controller must stay consistent under concurrent configure/release
// (exercised with -race in CI).
func TestControllerConcurrency(t *testing.T) {
	c, err := NewController(resource.PaperCluster())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	done := make(chan bool, workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			ok := true
			for i := 0; i < 200; i++ {
				dev := (id + i) % len(c.fpgas)
				if err := c.Configure(dev, 1); err == nil {
					if err := c.Release(dev, 1); err != nil {
						ok = false
					}
				}
				_ = c.Utilization()
				_ = c.totalFreeBlocks()
			}
			done <- ok
		}(w)
	}
	for w := 0; w < workers; w++ {
		if !<-done {
			t.Error("release failed after successful configure")
		}
	}
	if c.totalFreeBlocks() != 45 {
		t.Errorf("blocks leaked: %d free, want 45", c.totalFreeBlocks())
	}
}

// totalFreeBlocks sums free blocks across the cluster.
func (c *Controller) totalFreeBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, f := range c.fpgas {
		total += f.free
	}
	return total
}
