package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
)

func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(float64(r.Resources.LUTs-r.PaperLUTs))/float64(r.PaperLUTs) > 0.01 {
			t.Errorf("%s LUTs %d vs paper %d", r.Name, r.Resources.LUTs, r.PaperLUTs)
		}
		if r.Resources.DSPs != r.PaperDSPs {
			t.Errorf("%s DSPs %d vs paper %d", r.Name, r.Resources.DSPs, r.PaperDSPs)
		}
		if math.Abs(r.PeakTFLOPS-r.PaperPeakTFLOPS)/r.PaperPeakTFLOPS > 0.01 {
			t.Errorf("%s peak %.2f vs paper %.2f", r.Name, r.PeakTFLOPS, r.PaperPeakTFLOPS)
		}
		if r.UtilLUT <= 0 || r.UtilLUT >= 1 || r.UtilDSP <= 0 || r.UtilDSP > 1 {
			t.Errorf("%s utilization out of range: %+v", r.Name, r)
		}
	}
	text := FormatTable2(rows)
	if !strings.Contains(text, "BW-V37") || !strings.Contains(text, "BW-K115") {
		t.Error("formatted table incomplete")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Usable.LUTs != r.PaperLUTs || r.Usable.DSPs != r.PaperDSPs {
			t.Errorf("%s virtual block %v vs paper %d/%d", r.Device, r.Usable, r.PaperLUTs, r.PaperDSPs)
		}
		if r.PeakTFLOPS != r.PaperPeakTFLOPS {
			t.Errorf("%s peak %.2f vs paper %.2f", r.Device, r.PeakTFLOPS, r.PaperPeakTFLOPS)
		}
	}
	if !strings.Contains(FormatTable3(rows), "blocks/device") {
		t.Error("format missing")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d, want 14 (7 layers x 2 devices)", len(rows))
	}
	noFit := 0
	for _, r := range rows {
		if !r.Fits {
			noFit++
			if r.PaperBaselineMs >= 0 {
				t.Errorf("%v on %s: we say no-fit, paper says %v ms", r.Spec, r.Device, r.PaperBaselineMs)
			}
			continue
		}
		if r.PaperBaselineMs < 0 {
			t.Errorf("%v on %s: paper says no-fit, we fitted", r.Spec, r.Device)
		}
		// Overhead inside the paper's band (with slack).
		if r.Overhead < 0.02 || r.Overhead > 0.10 {
			t.Errorf("%v on %s: overhead %.1f%%", r.Spec, r.Device, 100*r.Overhead)
		}
		// Latency within 2.5x of the paper's absolute number (shape, not
		// exact testbed agreement).
		ratio := ms(r.Baseline) / r.PaperBaselineMs
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%v on %s: baseline %.4f ms vs paper %.4f ms (x%.2f)",
				r.Spec, r.Device, ms(r.Baseline), r.PaperBaselineMs, ratio)
		}
	}
	if noFit != 1 {
		t.Errorf("no-fit entries = %d, want exactly 1 (LSTM h=1536 on XCKU115)", noFit)
	}
	if !strings.Contains(FormatTable4(rows), "cannot fit") {
		t.Error("format must render the '-' entry")
	}
}

func TestFig11ShapeMatchesPaper(t *testing.T) {
	series, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	byLabel := map[string]Fig11Series{}
	for _, s := range series {
		byLabel[s.Label] = s
		// Overlap never loses to no-overlap, and both are monotone.
		for i, pt := range s.Points {
			if pt.StepWithOverlap > pt.StepNoOverlap {
				t.Errorf("%s: overlap worse at %v", s.Label, pt.AddedLatency)
			}
			if i > 0 && pt.StepWithOverlap < s.Points[i-1].StepWithOverlap {
				t.Errorf("%s: non-monotone at %v", s.Label, pt.AddedLatency)
			}
		}
	}
	lstm := byLabel["LSTM h=1024"]
	for _, pt := range lstm.Points {
		if !pt.Hidden {
			t.Errorf("LSTM must hide the entire sweep; exposed at %v", pt.AddedLatency)
		}
	}
	gruS := byLabel["GRU h=1024"]
	if gruS.CrossoverBudget < 300*time.Nanosecond || gruS.CrossoverBudget > 900*time.Nanosecond {
		t.Errorf("small GRU crossover = %v, paper ~0.6us", gruS.CrossoverBudget)
	}
	gruL := byLabel["GRU h=2560"]
	if gruL.CrossoverBudget > 300*time.Nanosecond {
		t.Errorf("large GRU crossover = %v, paper: not hidden", gruL.CrossoverBudget)
	}
	if !strings.Contains(FormatFig11(series), "overlap budget") {
		t.Error("format missing")
	}
}

func TestFig12Headline(t *testing.T) {
	opt := DefaultFig12Options()
	opt.NumTasks = 150 // keep the test quick; the bench runs the full size
	sum, err := Fig12(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 10 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	if sum.AvgVsBaseline < 2.0 || sum.AvgVsBaseline > 4.0 {
		t.Errorf("avg vs baseline = %.2fx, want 2-4x (paper 2.54x)", sum.AvgVsBaseline)
	}
	for _, r := range sum.Rows {
		if r.VsBaseline < 1.0 {
			t.Errorf("%v: proposed lost to baseline (%.2fx)", r.Composition, r.VsBaseline)
		}
	}
	if sum.AvgVsRestricted < 0.9 {
		t.Errorf("avg vs restricted = %.2f", sum.AvgVsRestricted)
	}
	if !strings.Contains(FormatFig12(sum), "paper: 2.54x") {
		t.Error("format missing")
	}
}

func TestCompileOverhead(t *testing.T) {
	r, err := CompileOverhead(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instances != 10 {
		t.Errorf("instances = %d", r.Instances)
	}
	if r.DecomposeFrac > 0.01 {
		t.Errorf("decompose+partition = %.3f%% of baseline, paper says <1%%", 100*r.DecomposeFrac)
	}
	if r.OverheadFrac < 0.15 || r.OverheadFrac > 0.45 {
		t.Errorf("piece-compile overhead = %.1f%%, want 15-45%% (paper 24.6%%)", 100*r.OverheadFrac)
	}
	if r.UniquePieces >= r.TotalPieces {
		t.Error("amortization must reuse pieces across instances")
	}
	if !strings.Contains(FormatCompileOverhead(r), "24.6%") {
		t.Error("format missing paper reference")
	}
}

func TestInstructionBufferFit(t *testing.T) {
	rows, err := InstructionBufferFit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(kernels.DeepBenchSuite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Fits {
			t.Errorf("%v: %d B exceeds the %d B buffer (breaks the §4.4 claim)",
				r.Spec, r.ProgramBytes, r.BufferBytes)
		}
	}
	if !strings.Contains(FormatInstructionBufferFit(rows), "fits") {
		t.Error("format missing")
	}
}

func TestAblationPartition(t *testing.T) {
	rows, err := AblationPartition()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no ablation rows")
	}
	strict := 0
	for _, r := range rows {
		if r.HopsAware > r.HopsNaive {
			t.Errorf("%v: aware hops %d > naive %d", r.Spec, r.HopsAware, r.HopsNaive)
		}
		if r.HopsAware < r.HopsNaive {
			strict++
		}
		if r.OverheadAware > r.OverheadNaive {
			t.Errorf("%v: aware overhead %.1f%% > naive %.1f%%",
				r.Spec, 100*r.OverheadAware, 100*r.OverheadNaive)
		}
	}
	// Single-tile instances have one lane, where the two partitioners
	// coincide; every multi-lane instance must show a strict win.
	if strict < len(rows)/2 {
		t.Errorf("pattern-aware won strictly on %d of %d rows", strict, len(rows))
	}
	if !strings.Contains(FormatAblationPartition(rows), "pattern-aware") {
		t.Error("format missing")
	}
}

func TestLoadSweep(t *testing.T) {
	points, err := LoadSweep(7, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("points = %d", len(points))
	}
	// At the lightest load both systems keep up with arrivals (throughput
	// ~ offered); at the heaviest load the proposed system's plateau beats
	// the baseline's.
	first := points[0]
	if first.Baseline < 0.5*first.OfferedPerSec {
		t.Errorf("baseline cannot keep up at light load: %+v", first)
	}
	last := points[len(points)-1]
	if last.Proposed <= last.Baseline {
		t.Errorf("saturated proposed (%v) must beat baseline (%v)", last.Proposed, last.Baseline)
	}
	// Baseline sojourn explodes under saturation (queueing).
	if last.BaselineSojourn <= first.BaselineSojourn {
		t.Error("baseline sojourn must grow with load")
	}
	if !strings.Contains(FormatLoadSweep(points), "offered") {
		t.Error("format missing")
	}
	if _, err := LoadSweep(0, 10, 1); err == nil {
		t.Error("bad set index must fail")
	}
}

func TestAblationPolicy(t *testing.T) {
	rows, err := AblationPolicy(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// SJF must improve (or at least not catastrophically hurt) average
	// sojourn on mixed sets, the classic SJF effect.
	better := 0
	for _, r := range rows {
		if r.SJF.Completed+r.SJF.Rejected != r.FIFO.Completed+r.FIFO.Rejected {
			t.Errorf("%v: task accounting differs", r.Composition)
		}
		if r.SJF.AvgSojourn < r.FIFO.AvgSojourn {
			better++
		}
	}
	if better < 3 {
		t.Errorf("SJF improved sojourn on only %d of %d sets", better, len(rows))
	}
	if !strings.Contains(FormatAblationPolicy(rows), "sjf") {
		t.Error("format missing")
	}
}

func TestAblationNumerics(t *testing.T) {
	rows, err := AblationNumerics()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Accuracy improves (weakly) with mantissa width, and the production
	// width (5 bits) is usable while very narrow widths degrade.
	for i := 1; i < len(rows); i++ {
		if rows[i].RMSErr > rows[i-1].RMSErr*1.5 {
			t.Errorf("rms error grew from %d to %d bits: %v -> %v",
				rows[i-1].MantissaBits, rows[i].MantissaBits, rows[i-1].RMSErr, rows[i].RMSErr)
		}
	}
	byBits := map[int]NumericsRow{}
	for _, r := range rows {
		byBits[r.MantissaBits] = r
	}
	if byBits[5].MaxAbsErr > 0.15 {
		t.Errorf("5-bit max error %v too large for inference", byBits[5].MaxAbsErr)
	}
	if byBits[3].RMSErr <= byBits[9].RMSErr {
		t.Error("3-bit must be worse than 9-bit")
	}
	if !strings.Contains(FormatAblationNumerics(rows), "ms-fp9") {
		t.Error("format missing")
	}
}
