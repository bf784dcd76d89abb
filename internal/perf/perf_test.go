package perf

import (
	"errors"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
)

func TestChooseInstanceFitPattern(t *testing.T) {
	// The Table 4 fit pattern: everything fits XCVU37P; LSTM h=1536 is the
	// only layer that does not fit XCKU115.
	for _, spec := range kernels.DeepBenchSuite() {
		if _, err := ChooseInstance(spec, "XCVU37P"); err != nil {
			t.Errorf("%v must fit XCVU37P: %v", spec, err)
		}
		_, err := ChooseInstance(spec, "XCKU115")
		isBig := spec.Kind == kernels.LSTM && spec.Hidden == 1536
		if isBig && !errors.Is(err, ErrDoesNotFit) {
			t.Errorf("LSTM h=1536 must not fit XCKU115, got %v", err)
		}
		if !isBig && err != nil {
			t.Errorf("%v must fit XCKU115: %v", spec, err)
		}
	}
}

func TestMinTilesMonotoneInHidden(t *testing.T) {
	prev := 0
	for _, h := range []int{256, 512, 1024, 1536} {
		tiles, err := MinTiles(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: h, TimeSteps: 1}, "XCVU37P")
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		if tiles < prev {
			t.Errorf("tiles must grow with h: h=%d -> %d after %d", h, tiles, prev)
		}
		prev = tiles
	}
}

func TestMinTilesErrors(t *testing.T) {
	if _, err := MinTiles(kernels.LayerSpec{Kind: kernels.GRU, Hidden: 256, TimeSteps: 1}, "bogus"); err == nil {
		t.Error("unknown device must error")
	}
	if _, err := ChooseInstance(kernels.LayerSpec{Kind: kernels.GRU, Hidden: 256, TimeSteps: 1}, "bogus"); err == nil {
		t.Error("unknown device must error in ChooseInstance")
	}
}

func TestBaselineScalesWithTimeSteps(t *testing.T) {
	p := DefaultParams()
	spec1 := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 10}
	spec2 := spec1
	spec2.TimeSteps = 20
	inst, err := ChooseInstance(spec1, "XCVU37P")
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := Baseline(spec1, inst, p), Baseline(spec2, inst, p)
	delta := b2.Total - b1.Total
	if delta != 10*b1.StepTime {
		t.Errorf("latency must be linear in steps: delta %v, step %v", delta, b1.StepTime)
	}
	if b1.Invoke != p.InvokeOverhead {
		t.Errorf("invoke = %v", b1.Invoke)
	}
}

func TestMoreTilesFaster(t *testing.T) {
	p := DefaultParams()
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 1024, TimeSteps: 100}
	small := Instance{Device: "XCVU37P", Tiles: 4, ClockMHz: 400}
	big := Instance{Device: "XCVU37P", Tiles: 16, ClockMHz: 400}
	if Baseline(spec, big, p).Total >= Baseline(spec, small, p).Total {
		t.Error("more tiles must not be slower")
	}
}

func TestKU115SlowerThanVU37P(t *testing.T) {
	p := DefaultParams()
	for _, spec := range kernels.DeepBenchSuite() {
		v37, err := ChooseInstance(spec, "XCVU37P")
		if err != nil {
			t.Fatal(err)
		}
		k115, err := ChooseInstance(spec, "XCKU115")
		if err != nil {
			continue // LSTM h=1536
		}
		if Baseline(spec, k115, p).Total <= Baseline(spec, v37, p).Total {
			t.Errorf("%v: XCKU115 must be slower than XCVU37P", spec)
		}
	}
}

// The headline Table 4 property: virtualization overhead stays within the
// paper's band (3.8%--8.4%, we accept 2.5%--9%) for every layer and
// device, and grows from the tiny single-step task to the large models.
func TestVirtualizationOverheadBand(t *testing.T) {
	p := DefaultParams()
	var minOvh, maxOvh float64 = 1, 0
	for _, spec := range kernels.DeepBenchSuite() {
		for _, dev := range []string{"XCVU37P", "XCKU115"} {
			inst, err := ChooseInstance(spec, dev)
			if err != nil {
				continue
			}
			base := Baseline(spec, inst, p)
			virt, err := Virtualized(spec, inst, 2, p)
			if err != nil {
				t.Fatal(err)
			}
			ovh := OverheadFrac(base, virt)
			if ovh < 0.025 || ovh > 0.09 {
				t.Errorf("%v on %s: overhead %.2f%% outside [2.5,9]", spec, dev, 100*ovh)
			}
			if ovh < minOvh {
				minOvh = ovh
			}
			if ovh > maxOvh {
				maxOvh = ovh
			}
		}
	}
	if maxOvh-minOvh < 0.02 {
		t.Errorf("overhead must vary across layers: [%.2f%%, %.2f%%]", 100*minOvh, 100*maxOvh)
	}
}

func TestVirtualizedHopsMatter(t *testing.T) {
	p := DefaultParams()
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 100}
	inst, _ := ChooseInstance(spec, "XCVU37P")
	v2, err := Virtualized(spec, inst, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	v10, err := Virtualized(spec, inst, 10, p)
	if err != nil {
		t.Fatal(err)
	}
	if v10.Total <= v2.Total {
		t.Error("more boundary hops must cost more")
	}
	if _, err := Virtualized(spec, Instance{Device: "bogus"}, 2, p); err == nil {
		t.Error("unknown device must error")
	}
}

func TestWeightKb(t *testing.T) {
	p := DefaultParams()
	lstm := WeightKb(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 1024}, p)
	gru := WeightKb(kernels.LayerSpec{Kind: kernels.GRU, Hidden: 1024}, p)
	if lstm/gru < 1.32 || lstm/gru > 1.34 {
		t.Errorf("LSTM/GRU weight ratio = %v, want 8/6", lstm/gru)
	}
}

func TestOverheadFracZeroBase(t *testing.T) {
	if OverheadFrac(Breakdown{}, Breakdown{Total: time.Second}) != 0 {
		t.Error("zero base must yield 0")
	}
}
