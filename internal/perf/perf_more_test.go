package perf

import (
	"errors"
	"testing"

	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/kernels"
)

func TestMinTilesScaled(t *testing.T) {
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 2560, TimeSteps: 1}
	// Full model does not fit one XCVU37P instance's blocks; halves and
	// quarters shrink monotonically.
	half, err := MinTilesScaled(spec, "XCVU37P", 2)
	if err != nil {
		t.Fatal(err)
	}
	quarter, err := MinTilesScaled(spec, "XCVU37P", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !(quarter < half) {
		t.Errorf("quarter tiles %d must be < half tiles %d", quarter, half)
	}
	one, err := MinTilesScaled(spec, "XCVU37P", 1)
	if err != nil {
		t.Fatal(err)
	}
	if one != hsvital.MaxTiles("XCVU37P") {
		t.Errorf("unscaled GRU h=2560 = %d tiles, want the max instance", one)
	}
	// Half of GRU h=2560 does not fit the XCKU115's weight storage.
	if _, err := MinTilesScaled(spec, "XCKU115", 2); !errors.Is(err, ErrDoesNotFit) {
		t.Errorf("GRU h=2560 half on XCKU115 = %v, want ErrDoesNotFit", err)
	}
	if _, err := MinTilesScaled(spec, "XCVU37P", 0); err == nil {
		t.Error("zero devices must fail")
	}
	if _, err := MinTilesScaled(spec, "bogus", 2); err == nil {
		t.Error("unknown device must fail")
	}
	// The single-device rule is the n = 1 case of the sharded one, fit or not.
	for _, layer := range kernels.DeepBenchSuite() {
		for _, dev := range []string{"XCVU37P", "XCKU115"} {
			got, gotErr := MinTiles(layer, dev)
			want, wantErr := MinTilesScaled(layer, dev, 1)
			if got != want || errors.Is(gotErr, ErrDoesNotFit) != errors.Is(wantErr, ErrDoesNotFit) {
				t.Errorf("%v on %s: MinTiles = %d, %v; MinTilesScaled(.., 1) = %d, %v", layer, dev, got, gotErr, want, wantErr)
			}
		}
	}
}

func TestDeviceWeightCapacityKb(t *testing.T) {
	v37, err := DeviceWeightCapacityKb("XCVU37P")
	if err != nil {
		t.Fatal(err)
	}
	k115, err := DeviceWeightCapacityKb("XCKU115")
	if err != nil {
		t.Fatal(err)
	}
	if v37 <= k115 {
		t.Errorf("XCVU37P capacity (%v) must exceed XCKU115 (%v)", v37, k115)
	}
	// Table 4 fit pattern depends on these bounds: LSTM h=1536 above K115,
	// below V37.
	p := DefaultParams()
	lstm1536 := WeightKb(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 1536}, p)
	if lstm1536 <= k115 || lstm1536 >= v37 {
		t.Errorf("LSTM h=1536 weights (%v Kb) must lie between K115 (%v) and V37 (%v)",
			lstm1536, k115, v37)
	}
	if _, err := DeviceWeightCapacityKb("bogus"); err == nil {
		t.Error("unknown device must fail")
	}
}

func TestStreamingLatency(t *testing.T) {
	p := DefaultParams()
	// GRU h=3072 exceeds on-chip storage: streaming dominates the step.
	big := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 3072, TimeSteps: 10}
	stream, err := StreamingLatency(big, "XCVU37P", p)
	if err != nil {
		t.Fatal(err)
	}
	inst := Instance{Device: "XCVU37P", Tiles: hsvital.MaxTiles("XCVU37P"), ClockMHz: 400}
	resident := Baseline(big, inst, p)
	if stream.Total <= resident.Total {
		t.Errorf("streaming (%v) must exceed the hypothetical resident latency (%v)",
			stream.Total, resident.Total)
	}
	// A layer that fits on-chip streams nothing: same as Baseline.
	small := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 10}
	s2, err := StreamingLatency(small, "XCVU37P", p)
	if err != nil {
		t.Fatal(err)
	}
	b2 := Baseline(small, Instance{Device: "XCVU37P", Tiles: hsvital.MaxTiles("XCVU37P"), ClockMHz: 400}, p)
	if s2.Total != b2.Total {
		t.Errorf("resident layer must not pay streaming: %v vs %v", s2.Total, b2.Total)
	}
	if _, err := StreamingLatency(big, "bogus", p); err == nil {
		t.Error("unknown device must fail")
	}
}

// Property-style check: streaming latency is monotone in the overflow.
func TestStreamingMonotoneInHidden(t *testing.T) {
	p := DefaultParams()
	prev := int64(0)
	for _, h := range []int{2304, 2560, 3072, 4096} {
		spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: h, TimeSteps: 5}
		b, err := StreamingLatency(spec, "XCVU37P", p)
		if err != nil {
			t.Fatal(err)
		}
		if int64(b.Total) < prev {
			t.Errorf("streaming latency decreased at h=%d", h)
		}
		prev = int64(b.Total)
	}
}
