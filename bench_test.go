// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4), plus microbenchmarks of the framework's hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The Benchmark*_Table*/Fig* benches execute the full experiment once per
// iteration and report the headline metric through b.ReportMetric, so the
// paper's numbers appear directly in the bench output.
package mlvfpga

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mlvfpga/internal/bfp"
	"mlvfpga/internal/experiments"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/rtl"
	"mlvfpga/internal/scaleout"
)

// BenchmarkTable2_BaselineImplementation regenerates the baseline
// accelerator implementation results (Table 2).
func BenchmarkTable2_BaselineImplementation(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].PeakTFLOPS, "BW-V37-TFLOPS")
	b.ReportMetric(rows[1].PeakTFLOPS, "BW-K115-TFLOPS")
}

// BenchmarkTable3_VirtualBlock regenerates the per-virtual-block results
// (Table 3).
func BenchmarkTable3_VirtualBlock(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].PeakTFLOPS, "vblock-V37-TFLOPS")
}

// BenchmarkTable4_InferenceLatency regenerates the single-FPGA latency
// comparison (Table 4) and reports the average virtualization overhead.
func BenchmarkTable4_InferenceLatency(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	sum, n := 0.0, 0
	for _, r := range rows {
		if r.Fits {
			sum += r.Overhead
			n++
		}
	}
	b.ReportMetric(100*sum/float64(n), "avg-overhead-%")
}

// BenchmarkFig11_ScaleOutLatency regenerates the inter-FPGA latency sweep
// (Fig. 11) and reports the small GRU's overlap budget.
func BenchmarkFig11_ScaleOutLatency(b *testing.B) {
	var series []experiments.Fig11Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if s.Label == "GRU h=1024" {
			b.ReportMetric(s.CrossoverBudget.Seconds()*1e6, "gru1024-budget-us")
		}
	}
}

// BenchmarkFig12_SystemThroughput regenerates the aggregated-throughput
// comparison (Fig. 12) and reports the headline ratio (paper: 2.54x).
func BenchmarkFig12_SystemThroughput(b *testing.B) {
	opt := experiments.DefaultFig12Options()
	var sum *experiments.Fig12Summary
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = experiments.Fig12(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum.AvgVsBaseline, "x-vs-baseline")
	b.ReportMetric(sum.AvgVsRestricted, "x-vs-restricted")
}

// BenchmarkCompileOverhead regenerates the §4.3 compilation-overhead
// accounting (paper: decompose+partition <1%, amortized pieces 24.6%).
func BenchmarkCompileOverhead(b *testing.B) {
	var r *experiments.CompileOverheadResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.CompileOverhead(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.OverheadFrac, "piece-overhead-%")
	b.ReportMetric(100*r.DecomposeFrac, "decompose-%")
}

// BenchmarkAblationPartition contrasts pattern-aware vs pattern-oblivious
// virtual-block partitioning (the §4.3 discussion).
func BenchmarkAblationPartition(b *testing.B) {
	var rows []experiments.AblationPartitionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationPartition()
		if err != nil {
			b.Fatal(err)
		}
	}
	worstNaive := 0.0
	for _, r := range rows {
		if r.OverheadNaive > worstNaive {
			worstNaive = r.OverheadNaive
		}
	}
	b.ReportMetric(100*worstNaive, "worst-naive-overhead-%")
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the framework's hot paths.

// BenchmarkOfflineFlow runs RTL generation + decompose + partition for an
// 8-tile instance (the §4.3 "added compilation steps").
func BenchmarkOfflineFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CompileInstance(8, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12_SystemThroughputParallel is BenchmarkFig12_SystemThroughput
// with the ten workload-set simulations fanned out over the available CPUs
// (rows and averages stay identical); reports the speedup over the
// sequential sweep alongside the headline ratio.
func BenchmarkFig12_SystemThroughputParallel(b *testing.B) {
	opt := experiments.DefaultFig12Options()
	opt.Parallelism = 1
	t0 := time.Now()
	if _, err := experiments.Fig12(opt); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(t0)
	opt.Parallelism = runtime.GOMAXPROCS(0)
	var sum *experiments.Fig12Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = experiments.Fig12(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum.AvgVsBaseline, "x-vs-baseline")
	perOp := b.Elapsed().Seconds() / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(seq.Seconds()/perOp, "speedup-vs-seq")
	}
}

// BenchmarkRTLParse parses the generated 21-tile accelerator.
func BenchmarkRTLParse(b *testing.B) {
	src, err := GenerateAcceleratorRTL(21, true)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtl.ParseDesign(src, AcceleratorTopModule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalLSTMStep executes LSTM inference timesteps on the
// functional AS ISA simulator (h=64).
func BenchmarkFunctionalLSTMStep(b *testing.B) {
	w := kernels.RandomWeights(kernels.LSTM, 64, 1)
	k, err := kernels.Build(w, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := k.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 64)
	r := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = r.NormFloat64()
	}
	if err := k.SetInput(m, 0, x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(k.Prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleOutReorder runs the §2.3 instruction reordering tool over
// a 50-step scaled LSTM program.
func BenchmarkScaleOutReorder(b *testing.B) {
	w := kernels.RandomWeights(kernels.LSTM, 64, 1)
	sg, err := scaleout.BuildScaledGroup(w, 50, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scaleout.ReorderForOverlap(sg.Progs[0],
			uint32(sg.SyncCfg.SendAddr), uint32(sg.SyncCfg.RecvAddr))
	}
}

// BenchmarkBFPMatVec measures one 256x256 block-floating-point
// matrix-vector product on the packed tile layout the accelerator serves
// from (a tile engine's inner loop).
func BenchmarkBFPMatVec(b *testing.B) {
	codec, err := bfp.NewCodec(5)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	data := make([]float64, 256*256)
	for i := range data {
		data[i] = r.NormFloat64()
	}
	vec := make([]float64, 256)
	for i := range vec {
		vec[i] = r.NormFloat64()
	}
	m, err := codec.QuantizeMatrixPacked(data, 256, 256, 128)
	if err != nil {
		b.Fatal(err)
	}
	vb, err := codec.QuantizeVectorInto(nil, vec, 128)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MatVecInto(out, vb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFP16RoundTrip measures float16 encode/decode.
func BenchmarkFP16RoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := fp16.FromFloat32(float32(i) * 0.001)
		_ = n.Float32()
	}
}

// BenchmarkLatencyModel measures the Table 4 analytic model.
func BenchmarkLatencyModel(b *testing.B) {
	p := perf.DefaultParams()
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 1024, TimeSteps: 25}
	inst, err := perf.ChooseInstance(spec, "XCVU37P")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base := perf.Baseline(spec, inst, p)
		virt, err := perf.Virtualized(spec, inst, 2, p)
		if err != nil {
			b.Fatal(err)
		}
		_ = perf.OverheadFrac(base, virt)
	}
}
