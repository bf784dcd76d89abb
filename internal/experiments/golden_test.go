package experiments

import (
	"testing"
	"time"

	"mlvfpga/internal/rms"
)

// TestFig12Golden pins every number the system-level simulators produce at
// the default options: the 40 throughputs and three averages of Fig. 12,
// one load-sweep point and one policy-ablation row (so FIFO-backfill and
// SJF are both covered). The literals were recorded before the two DES
// loops were merged; a refactor of rms.Simulate / SimulateBaseline must
// reproduce them bit for bit.
func TestFig12Golden(t *testing.T) {
	sum, err := Fig12(DefaultFig12Options())
	if err != nil {
		t.Fatal(err)
	}
	// baseline, restricted, static-target, proposed — Table 1 order.
	want := [][4]float64{
		{10463.264159647648, 34630.83129809862, 33708.91431115328, 34630.83129809862},
		{3694.521813546671, 5365.778886625922, 5018.974232084395, 5315.000597051734},
		{498.4243038349499, 2153.9950976363975, 2153.9950976363975, 2153.9950976363975},
		{5278.10456086997, 8942.361294884915, 8376.866044641547, 8480.66438203222},
		{860.5416006161546, 4284.842503900849, 4284.842503900849, 4020.085472645268},
		{825.6128714235537, 3346.8134052460896, 3154.790754822597, 3334.2544767034306},
		{1258.5897069378902, 4649.160336072923, 4653.733383146895, 4649.160336072923},
		{704.262873122461, 3182.950453747624, 2988.57235679354, 3160.0411032866386},
		{2531.2023208492833, 6930.138200816001, 6402.947336419796, 6250.8044003912755},
		{1267.543504533097, 6193.041948094836, 5809.929211628822, 6190.748347565451},
	}
	if len(sum.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(sum.Rows), len(want))
	}
	for i, r := range sum.Rows {
		if got := [4]float64{r.Baseline, r.Restricted, r.StaticTarget, r.Proposed}; got != want[i] {
			t.Errorf("set %d: throughputs %v, want %v", i+1, got, want[i])
		}
	}
	if got, want := [3]float64{sum.AvgVsBaseline, sum.AvgVsRestricted, sum.AvgVsStatic},
		[3]float64{3.4921355425158565, 0.9767770733483097, 1.0191995764114654}; got != want {
		t.Errorf("averages %v, want %v", got, want)
	}

	points, err := LoadSweep(7, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := points[3], (LoadSweepPoint{
		MeanInterarrival: 200 * time.Microsecond,
		OfferedPerSec:    1 / (200 * time.Microsecond).Seconds(),
		Baseline:         1026.5638591705497,
		Proposed:         4099.3764274541145,
		BaselineSojourn:  35143996,
		ProposedSojourn:  1678048,
	}); got != want {
		t.Errorf("load sweep at 200µs: %+v, want %+v", got, want)
	}

	rows, err := AblationPolicy(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows[3].FIFO, (rms.Result{
		Completed: 120, Makespan: 14468719, ThroughputPerSec: 8293.754270851483,
		AvgLatency: 658138, AvgSojourn: 5245354, PeakQueue: 83, PeakUtilization: 0.9777777777777777,
	}); got != want {
		t.Errorf("policy set 4 fifo: %+v, want %+v", got, want)
	}
	if got, want := rows[3].SJF, (rms.Result{
		Completed: 120, Makespan: 15101687, ThroughputPerSec: 7946.132110935685,
		AvgLatency: 660697, AvgSojourn: 4727836, PeakQueue: 70, PeakUtilization: 1,
	}); got != want {
		t.Errorf("policy set 4 sjf: %+v, want %+v", got, want)
	}
}

// TestFig11Golden pins the three Fig. 11 series to the nanosecond: the
// crossover budget and every {overlap, no-overlap} step time of the
// 0..1 µs sweep. The literals were recorded while Fig. 11 still had its
// own 2-FPGA copy of the step formula; the n-device model at n = 2 must
// reproduce them bit for bit.
func TestFig11Golden(t *testing.T) {
	want := []struct {
		label  string
		budget time.Duration
		points [11][2]time.Duration // {with overlap, without}, added = 0, 100ns, .. 1µs
	}{
		{"LSTM h=1024", 1448, [11][2]time.Duration{{6148, 6889}, {6148, 6989}, {6148, 7089}, {6148, 7189}, {6148, 7289}, {6148, 7389}, {6148, 7489}, {6148, 7589}, {6148, 7689}, {6148, 7789}, {6148, 7889}}},
		{"GRU h=1024", 560, [11][2]time.Duration{{5550, 6291}, {5550, 6391}, {5550, 6491}, {5550, 6591}, {5550, 6691}, {5550, 6791}, {5590, 6891}, {5690, 6991}, {5790, 7091}, {5890, 7191}, {5990, 7291}}},
		{"GRU h=2560", 126, [11][2]time.Duration{{5762, 7015}, {5762, 7115}, {5836, 7215}, {5936, 7315}, {6036, 7415}, {6136, 7515}, {6236, 7615}, {6336, 7715}, {6436, 7815}, {6536, 7915}, {6636, 8015}}},
	}
	series, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(want) {
		t.Fatalf("%d series, want %d", len(series), len(want))
	}
	for i, s := range series {
		w := want[i]
		if s.Label != w.label || s.CrossoverBudget != w.budget {
			t.Errorf("series %d: %s budget %d, want %s budget %d", i, s.Label, s.CrossoverBudget, w.label, w.budget)
		}
		if len(s.Points) != len(w.points) {
			t.Fatalf("%s: %d points, want %d", s.Label, len(s.Points), len(w.points))
		}
		for j, pt := range s.Points {
			if got := [2]time.Duration{pt.StepWithOverlap, pt.StepNoOverlap}; got != w.points[j] {
				t.Errorf("%s +%v: steps %v, want %v", s.Label, pt.AddedLatency, got, w.points[j])
			}
		}
	}
}

// TestTable4Golden pins every instance size and base/virtualized latency
// Table4 returns (TestTable4Shape only checks bands). Recorded before
// perf's step-cycle formula gained its row-share and sync-instruction
// parameters; the one-device case must not move.
func TestTable4Golden(t *testing.T) {
	want := []struct {
		spec, device string
		tiles        int
		base, virt   time.Duration
	}{
		{"GRU h=512 t=1", "XCVU37P", 1, 13305, 13760},
		{"GRU h=512 t=1", "XCKU115", 2, 17130, 17774},
		{"GRU h=1024 t=1500", "XCVU37P", 4, 7860500, 8532500},
		{"GRU h=1024 t=1500", "XCKU115", 5, 14777000, 15849500},
		{"GRU h=1536 t=375", "XCVU37P", 8, 2050625, 2226500},
		{"GRU h=1536 t=375", "XCKU115", 10, 3785000, 4061750},
		{"LSTM h=256 t=150", "XCVU37P", 1, 734150, 791600},
		{"LSTM h=256 t=150", "XCKU115", 1, 1597250, 1704800},
		{"LSTM h=512 t=25", "XCVU37P", 2, 144325, 155425},
		{"LSTM h=512 t=25", "XCKU115", 2, 293275, 313250},
		{"LSTM h=1024 t=25", "XCVU37P", 5, 162275, 175150},
		{"LSTM h=1024 t=25", "XCKU115", 6, 305925, 327175},
		{"LSTM h=1536 t=50", "XCVU37P", 10, 327900, 354850},
		{"LSTM h=1536 t=50", "XCKU115", 0, 0, 0}, // the "-" entry: does not fit
	}
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		w := want[i]
		if r.Spec.String() != w.spec || r.Device != w.device || r.Tiles != w.tiles || r.Baseline != w.base || r.ThisWork != w.virt {
			t.Errorf("row %d: %v on %s tiles=%d base=%d virt=%d, want %+v",
				i, r.Spec, r.Device, r.Tiles, r.Baseline, r.ThisWork, w)
		}
	}
}
