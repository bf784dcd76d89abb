package mlvfpga

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestOfflineFlowThroughFacade(t *testing.T) {
	src, err := GenerateAcceleratorRTL(4, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseRTL(src, AcceleratorTopModule)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Decompose(d, AcceleratorTopModule, AcceleratorControlModules(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Data.Kind != DataParallel || len(acc.Data.Children) != 4 {
		t.Fatalf("decomposition shape wrong:\n%s", acc.Data)
	}
	pr, err := Partition(acc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pr.MaxPieces() != 4 {
		t.Errorf("max pieces = %d", pr.MaxPieces())
	}
	if _, err := Partition(nil, 1); err == nil {
		t.Error("nil accelerator must fail")
	}
}

func TestCompileInstanceFacade(t *testing.T) {
	c, err := CompileInstance(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Images) == 0 {
		t.Error("no images")
	}
}

// TestCompileInstanceWithOptionsMatchesDefault: the README's explicit
// options compile what CompileInstance(8, 2) does.
func TestCompileInstanceWithOptionsMatchesDefault(t *testing.T) {
	want, err := CompileInstance(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CompileInstanceWithOptions(CompileOptions{
		Tiles: 8, PartitionIterations: 2, Seed: 1, PatternAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The two measured wall-clock fields differ run to run.
	got.DecomposeTime, got.PartitionTime = want.DecomposeTime, want.PartitionTime
	if !reflect.DeepEqual(got, want) {
		t.Error("CompileInstanceWithOptions at the README's options differs from CompileInstance(8, 2)")
	}
}

func TestRunInferenceFacade(t *testing.T) {
	spec := LayerSpec{Kind: GRU, Hidden: 32, TimeSteps: 3}
	r := rand.New(rand.NewSource(5))
	inputs := make([][]float64, spec.TimeSteps)
	for i := range inputs {
		x := make([]float64, spec.Hidden)
		for j := range x {
			x[j] = r.NormFloat64() * 0.5
		}
		inputs[i] = x
	}
	res, err := RunInference(spec, inputs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 3 || res.MaxAbsError > 0.1 {
		t.Errorf("inference result: %d outputs, max error %v", len(res.Outputs), res.MaxAbsError)
	}
	if res.Instructions == 0 || res.MACs == 0 {
		t.Error("stats empty")
	}
	if _, err := RunInference(spec, inputs[:1], 7); err == nil {
		t.Error("input count mismatch must fail")
	}
}

func TestPredictLatencyFacade(t *testing.T) {
	spec := LayerSpec{Kind: LSTM, Hidden: 512, TimeSteps: 25}
	base, virt, ovh, err := PredictLatency(spec, "XCVU37P")
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 || virt <= base || ovh <= 0 || ovh > 0.1 {
		t.Errorf("latency prediction: base %v virt %v ovh %v", base, virt, ovh)
	}
	if _, _, _, err := PredictLatency(spec, "bogus"); err == nil {
		t.Error("unknown device must fail")
	}
}

func TestSimulateClusterFacade(t *testing.T) {
	prop, base, err := SimulateCluster(1, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	if prop.Completed != 80 || base.Completed != 80 {
		t.Errorf("completions: %d / %d", prop.Completed, base.Completed)
	}
	if prop.ThroughputPerSec <= base.ThroughputPerSec {
		t.Errorf("virtualized (%v/s) must beat baseline (%v/s) on the all-small set",
			prop.ThroughputPerSec, base.ThroughputPerSec)
	}
	if _, _, err := SimulateCluster(0, 10, 1); err == nil {
		t.Error("set index 0 must fail")
	}
	if _, _, err := SimulateCluster(11, 10, 1); err == nil {
		t.Error("set index 11 must fail")
	}
}

func TestReproduceEntryPoints(t *testing.T) {
	if _, err := ReproduceTable2(); err != nil {
		t.Error(err)
	}
	if _, err := ReproduceTable3(); err != nil {
		t.Error(err)
	}
	if _, err := ReproduceTable4(); err != nil {
		t.Error(err)
	}
	if _, err := ReproduceInstructionBuffer(); err != nil {
		t.Error(err)
	}
}
