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
	p := perf.DefaultParams()
	net := scaleout.DefaultOptions()
	cluster := resource.PaperCluster()
	comps := workload.Table1()
	rows, err := parpool.Map(context.Background(), opt.Parallelism, len(comps),
		func(_ context.Context, i int) (Fig12Row, error) {
			return fig12Row(comps[i], opt, cluster, p, net)
		})
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

// simulate runs a task sequence through the virtualized system under one
// policy mode and queue discipline, over a fresh mapping database.
func simulate(tasks []workload.Task, cluster resource.ClusterSpec, mode rms.PolicyMode, q rms.QueueDiscipline, p perf.Params, net scaleout.TwoFPGAOptions) (rms.Result, error) {
	return rms.Simulate(tasks, rms.Config{Cluster: cluster, Mode: mode, DB: rms.NewDatabase(mode, p, net), Discipline: q})
}

// fig12Row simulates one workload set under the four systems.
func fig12Row(comp workload.Composition, opt Fig12Options, cluster resource.ClusterSpec, p perf.Params, net scaleout.TwoFPGAOptions) (Fig12Row, error) {
	tasks, err := workload.Generate(comp, workload.Options{
		NumTasks:         opt.NumTasks,
		MeanInterarrival: opt.MeanInterarrival,
		Seed:             opt.Seed + int64(comp.Index),
	})
	if err != nil {
		return Fig12Row{}, err
	}
	base, err := rms.SimulateBaseline(tasks, cluster, p)
	if err != nil {
		return Fig12Row{}, err
	}
	restr, err := simulate(tasks, cluster, rms.SameTypeOnly, rms.FIFOBackfill, p, net)
	if err != nil {
		return Fig12Row{}, err
	}
	pinned, err := simulate(tasks, cluster, rms.StaticTarget, rms.FIFOBackfill, p, net)
	if err != nil {
		return Fig12Row{}, err
	}
	flex, err := simulate(tasks, cluster, rms.Flexible, rms.FIFOBackfill, p, net)
	if err != nil {
		return Fig12Row{}, err
	}
	row := Fig12Row{
		Composition:  comp,
		Baseline:     base.ThroughputPerSec,
		Restricted:   restr.ThroughputPerSec,
		StaticTarget: pinned.ThroughputPerSec,
		Proposed:     flex.ThroughputPerSec,
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
