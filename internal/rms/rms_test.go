package rms

import (
	"testing"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/workload"
)

func testDB(mode PolicyMode) *Database {
	return NewDatabase(mode, perf.DefaultParams(), scaleout.DefaultOptions())
}

func TestOptionsGreedyOrder(t *testing.T) {
	db := testDB(Flexible)
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 25}
	opts, err := db.Options(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) == 0 {
		t.Fatal("no options")
	}
	for i := 1; i < len(opts); i++ {
		if opts[i].NumPieces() < opts[i-1].NumPieces() {
			t.Fatal("options must be sorted by ascending piece count")
		}
		if opts[i].NumPieces() == opts[i-1].NumPieces() && opts[i].Latency < opts[i-1].Latency {
			t.Fatal("equal piece counts must sort by latency")
		}
	}
	// A small LSTM has single-FPGA options on both device types.
	if opts[0].NumPieces() != 1 {
		t.Errorf("first option uses %d pieces, want 1", opts[0].NumPieces())
	}
	// Cached result is returned.
	opts2, _ := db.Options(spec)
	if &opts[0] != &opts2[0] {
		t.Error("options must be cached")
	}
}

func TestOptionsLargeTaskNeedsMultiFPGA(t *testing.T) {
	db := testDB(Flexible)
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 2560, TimeSteps: 100}
	opts, err := db.Options(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range opts {
		if o.NumPieces() < 2 {
			t.Errorf("GRU h=2560 must not have a single-FPGA deployment (needs 14 virtual blocks): %+v", o)
		}
	}
}

func TestOptionsRestrictedSameType(t *testing.T) {
	db := testDB(SameTypeOnly)
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 2048, TimeSteps: 50}
	opts, err := db.Options(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range opts {
		first := o.Pieces[0].Device
		for _, piece := range o.Pieces {
			if piece.Device != first {
				t.Errorf("restricted option mixes types: %+v", o)
			}
		}
	}
}

func TestOptionsFlexibleHasMixed(t *testing.T) {
	db := testDB(Flexible)
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 2048, TimeSteps: 50}
	opts, err := db.Options(spec)
	if err != nil {
		t.Fatal(err)
	}
	mixed := false
	for _, o := range opts {
		types := map[string]bool{}
		for _, piece := range o.Pieces {
			types[piece.Device] = true
		}
		if len(types) > 1 {
			mixed = true
		}
	}
	if !mixed {
		t.Error("flexible LSTM h=2048 must offer a heterogeneous deployment")
	}
}

func TestOptionsStaticTargetSingleType(t *testing.T) {
	db := testDB(StaticTarget)
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 25}
	opts, err := db.Options(spec)
	if err != nil {
		t.Fatal(err)
	}
	target := opts[0].Pieces[0].Device
	for _, o := range opts {
		for _, piece := range o.Pieces {
			if piece.Device != target {
				t.Errorf("static-target option strays from %s: %+v", target, o)
			}
		}
	}
}

func quickSet(t *testing.T, comp workload.Composition, n int) []workload.Task {
	t.Helper()
	tasks, err := workload.Generate(comp, workload.Options{
		NumTasks: n, MeanInterarrival: 50 * time.Microsecond, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func TestSimulateCompletesAllTasks(t *testing.T) {
	tasks := quickSet(t, workload.Table1()[6], 120)
	res, err := Simulate(tasks, Config{
		Cluster: resource.PaperCluster(), Mode: Flexible, DB: testDB(Flexible),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Rejected != len(tasks) {
		t.Errorf("completed %d + rejected %d != %d", res.Completed, res.Rejected, len(tasks))
	}
	if res.Rejected > 0 {
		t.Errorf("no task in the menu should be cluster-infeasible, got %d rejections", res.Rejected)
	}
	if res.ThroughputPerSec <= 0 || res.Makespan <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.AvgLatency <= 0 || res.AvgSojourn < res.AvgLatency {
		t.Errorf("latency accounting wrong: %+v", res)
	}
	if res.PeakUtilization <= 0 || res.PeakUtilization > 1 {
		t.Errorf("peak utilization = %v", res.PeakUtilization)
	}
}

func TestSimulateBaselineCompletes(t *testing.T) {
	tasks := quickSet(t, workload.Table1()[6], 120)
	res, err := SimulateBaseline(tasks, resource.PaperCluster(), perf.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(tasks) {
		t.Errorf("baseline completed %d of %d", res.Completed, len(tasks))
	}
}

// The headline Fig. 12 property: the virtualized framework beats the
// per-device baseline on aggregated throughput for every composition, by
// >2x on average (paper: 2.54x).
func TestFig12ThroughputGain(t *testing.T) {
	p := perf.DefaultParams()
	var sum float64
	comps := workload.Table1()
	for _, comp := range comps {
		tasks, err := workload.Generate(comp, workload.Options{
			NumTasks: 200, MeanInterarrival: 20 * time.Microsecond, Seed: int64(comp.Index),
		})
		if err != nil {
			t.Fatal(err)
		}
		base, err := SimulateBaseline(tasks, resource.PaperCluster(), p)
		if err != nil {
			t.Fatal(err)
		}
		flex, err := Simulate(tasks, Config{
			Cluster: resource.PaperCluster(), Mode: Flexible, DB: testDB(Flexible),
		})
		if err != nil {
			t.Fatal(err)
		}
		ratio := flex.ThroughputPerSec / base.ThroughputPerSec
		if ratio < 1.0 {
			t.Errorf("%v: virtualized (%.0f/s) lost to baseline (%.0f/s)",
				comp, flex.ThroughputPerSec, base.ThroughputPerSec)
		}
		sum += ratio
	}
	avg := sum / float64(len(comps))
	if avg < 2.0 || avg > 4.0 {
		t.Errorf("average throughput gain = %.2fx, want 2-4x (paper: 2.54x)", avg)
	}
}

// TestSimulateEngineReuse: every Simulate call owns a fresh event engine,
// so back-to-back runs over one shared Database return the same Result.
func TestSimulateEngineReuse(t *testing.T) {
	tasks := quickSet(t, workload.Table1()[6], 120)
	cfg := Config{Cluster: resource.PaperCluster(), Mode: Flexible, DB: testDB(Flexible)}
	fresh, err := Simulate(tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := Simulate(tasks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again != fresh {
			t.Errorf("run %d over the same database: %+v, want %+v", i, again, fresh)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	tasks := quickSet(t, workload.Table1()[0], 5)
	if _, err := Simulate(tasks, Config{Cluster: resource.PaperCluster(), DB: nil}); err == nil {
		t.Error("nil database must fail")
	}
	if _, err := Simulate(tasks, Config{Cluster: resource.ClusterSpec{}, DB: testDB(Flexible)}); err == nil {
		t.Error("empty cluster must fail")
	}
	if _, err := SimulateBaseline(tasks, resource.ClusterSpec{}, perf.DefaultParams()); err == nil {
		t.Error("baseline empty cluster must fail")
	}
}

func TestDeploymentAccessors(t *testing.T) {
	d := Deployment{Pieces: []PieceReq{{Device: "XCVU37P", Blocks: 3}, {Device: "XCKU115", Blocks: 4}}}
	if d.NumPieces() != 2 || d.TotalBlocks() != 7 {
		t.Errorf("accessors wrong: %d pieces, %d blocks", d.NumPieces(), d.TotalBlocks())
	}
}

func TestPolicyModeString(t *testing.T) {
	if Flexible.String() != "flexible" || SameTypeOnly.String() != "restricted" || StaticTarget.String() != "static-target" {
		t.Error("policy names wrong")
	}
}

// TestOptionsBuildAtTheirDepth: every deployment the database offers runs,
// i.e. each of its devices' shard program builds at the deployment's depth
// (attention has no scaled step program, so it is offered on one device).
func TestOptionsBuildAtTheirDepth(t *testing.T) {
	db := testDB(Flexible)
	for _, kind := range []kernels.RNNKind{kernels.LSTM, kernels.GRU, kernels.Attention} {
		for _, hidden := range []int{64, 256} {
			spec := kernels.LayerSpec{Kind: kind, Hidden: hidden, TimeSteps: 4}
			opts, err := db.Options(spec)
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			w := kernels.RandomWeights(kind, hidden, 1)
			for _, o := range opts {
				for dev := range o.NumPieces() {
					if _, err := kernels.BuildShard(w, spec.TimeSteps, 1, dev, o.NumPieces()); err != nil {
						t.Errorf("%v at depth %d: %v", spec, o.NumPieces(), err)
					}
				}
			}
		}
	}
}
