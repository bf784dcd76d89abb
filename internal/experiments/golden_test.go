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
