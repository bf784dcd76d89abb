package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mlvfpga/internal/parpool"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/workload"
)

// Fig12Row is one workload set's aggregated throughput under the four
// systems.
type Fig12Row struct {
	Composition workload.Composition
	// Throughputs in tasks/second.
	Baseline     float64
	Restricted   float64 // same-type-only multi-FPGA (literal Fig. 12 policy)
	StaticTarget float64 // additionally pinned to the offline compile target
	Proposed     float64
	// Ratios.
	VsBaseline   float64
	VsRestricted float64
	VsStatic     float64
}

// Fig12Options tunes the system-level simulation.
type Fig12Options struct {
	NumTasks         int
	MeanInterarrival time.Duration
	Seed             int64
	// Parallelism bounds the goroutines simulating independent workload
	// sets (each with its own DES engine and mapping database). Zero means
	// one worker per logical CPU; 1 is strictly sequential. Rows are
	// identical at every setting.
	Parallelism int
}

// DefaultFig12Options saturates the paper cluster so throughput reflects
// capacity rather than the arrival rate.
func DefaultFig12Options() Fig12Options {
	return Fig12Options{NumTasks: 300, MeanInterarrival: 20 * time.Microsecond, Seed: 1}
}

// Fig12Summary aggregates the per-set rows.
type Fig12Summary struct {
	Rows []Fig12Row
	// AvgVsBaseline is the headline number (paper: 2.54x).
	AvgVsBaseline float64
	// AvgVsRestricted / AvgVsStatic bracket the paper's +16% restricted
	// comparison (see EXPERIMENTS.md for the interpretation discussion).
	AvgVsRestricted float64
	AvgVsStatic     float64
}

// Fig12 reproduces the aggregated-throughput comparison over the ten
// Table 1 workload sets. The sets are independent — every simulation owns
// its DES engine, controller state and mapping database — so they fan out
// over a bounded worker pool; rows keep Table 1 order and the averages are
// accumulated sequentially afterwards, so the summary is bit-identical to
// the sequential run.
func Fig12(opt Fig12Options) (*Fig12Summary, error) {
	comps := workload.Table1()
	rows, err := parpool.Map(context.Background(), opt.Parallelism, len(comps),
		func(_ context.Context, i int) (Fig12Row, error) { return fig12Row(comps[i], opt) })
	if err != nil {
		return nil, err
	}
	sum := &Fig12Summary{Rows: rows}
	for _, row := range rows {
		sum.AvgVsBaseline += row.VsBaseline
		sum.AvgVsRestricted += row.VsRestricted
		sum.AvgVsStatic += row.VsStatic
	}
	n := float64(len(sum.Rows))
	sum.AvgVsBaseline /= n
	sum.AvgVsRestricted /= n
	sum.AvgVsStatic /= n
	return sum, nil
}

// simulate runs a task sequence through the virtualized system on the
// paper's cluster under one policy mode and queue discipline, over a fresh
// mapping database.
func simulate(tasks []workload.Task, mode rms.PolicyMode, q rms.QueueDiscipline) (rms.Result, error) {
	return rms.Simulate(tasks, rms.Config{
		Cluster:    resource.PaperCluster(),
		Mode:       mode,
		DB:         rms.NewDatabase(mode, perf.DefaultParams(), scaleout.DefaultOptions()),
		Discipline: q,
	})
}

// Systems runs one task sequence on the paper's cluster under the AS
// ISA-only baseline and under the virtualized system (FIFO-backfill queue)
// in each of the wanted policy modes; virt is in the order of modes. It is
// the one "baseline against the framework" run behind Fig. 12, the load
// sweep, `mlv sim` and the facade's SimulateCluster.
func Systems(tasks []workload.Task, modes ...rms.PolicyMode) (base rms.Result, virt []rms.Result, err error) {
	base, err = rms.SimulateBaseline(tasks, resource.PaperCluster(), perf.DefaultParams())
	if err != nil {
		return base, nil, err
	}
	for _, mode := range modes {
		r, err := simulate(tasks, mode, rms.FIFOBackfill)
		if err != nil {
			return base, nil, err
		}
		virt = append(virt, r)
	}
	return base, virt, nil
}

// fig12Row simulates one workload set under the four systems.
func fig12Row(comp workload.Composition, opt Fig12Options) (Fig12Row, error) {
	tasks, err := workload.Generate(comp, workload.Options{
		NumTasks:         opt.NumTasks,
		MeanInterarrival: opt.MeanInterarrival,
		Seed:             opt.Seed + int64(comp.Index),
	})
	if err != nil {
		return Fig12Row{}, err
	}
	base, virt, err := Systems(tasks, rms.SameTypeOnly, rms.StaticTarget, rms.Flexible)
	if err != nil {
		return Fig12Row{}, err
	}
	row := Fig12Row{
		Composition:  comp,
		Baseline:     base.ThroughputPerSec,
		Restricted:   virt[0].ThroughputPerSec,
		StaticTarget: virt[1].ThroughputPerSec,
		Proposed:     virt[2].ThroughputPerSec,
	}
	if row.Baseline > 0 {
		row.VsBaseline = row.Proposed / row.Baseline
	}
	if row.Restricted > 0 {
		row.VsRestricted = row.Proposed / row.Restricted
	}
	if row.StaticTarget > 0 {
		row.VsStatic = row.Proposed / row.StaticTarget
	}
	return row, nil
}

// FormatFig12 renders the summary as text.
func FormatFig12(s *Fig12Summary) string {
	var sb strings.Builder
	sb.WriteString("Fig. 12: aggregated system throughput (tasks/s) per workload set\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&sb, "%-32s base=%8.0f restricted=%8.0f static=%8.0f proposed=%8.0f  x%.2f vs base, x%.2f vs restricted\n",
			r.Composition, r.Baseline, r.Restricted, r.StaticTarget, r.Proposed,
			r.VsBaseline, r.VsRestricted)
	}
	fmt.Fprintf(&sb, "average: x%.2f vs baseline (paper: 2.54x), x%.2f vs restricted / x%.2f vs static-target (paper: 1.16x)\n",
		s.AvgVsBaseline, s.AvgVsRestricted, s.AvgVsStatic)
	return sb.String()
}
