package experiments

import (
	"fmt"
	"strings"
	"time"

	"mlvfpga/internal/rms"
	"mlvfpga/internal/workload"
)

// This file holds extension experiments beyond the paper's figures: a
// saturation (offered load) sweep, and the queue-policy ablation the paper
// defers to future work ("further exploration on more comprehensive
// runtime policy").

// LoadSweepPoint is one offered-load sample.
type LoadSweepPoint struct {
	MeanInterarrival time.Duration
	OfferedPerSec    float64
	// Throughputs of the two systems at this load.
	Baseline float64
	Proposed float64
	// Sojourn times (arrival to completion) show where queueing begins.
	BaselineSojourn time.Duration
	ProposedSojourn time.Duration
}

// LoadSweep sweeps the offered load on a mixed workload set and reports
// both systems' achieved throughput: at low load both track the arrival
// rate; past each system's capacity the curves flatten, and the gap
// between the plateaus is the Fig. 12 gain.
func LoadSweep(setIndex, numTasks int, seed int64) ([]LoadSweepPoint, error) {
	comps := workload.Table1()
	if setIndex < 1 || setIndex > len(comps) {
		return nil, fmt.Errorf("experiments: set %d out of range", setIndex)
	}
	var out []LoadSweepPoint
	for _, inter := range []time.Duration{
		2 * time.Millisecond, 1 * time.Millisecond, 500 * time.Microsecond,
		200 * time.Microsecond, 100 * time.Microsecond, 50 * time.Microsecond,
		20 * time.Microsecond,
	} {
		tasks, err := workload.Generate(comps[setIndex-1], workload.Options{
			NumTasks: numTasks, MeanInterarrival: inter, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		base, virt, err := Systems(tasks, rms.Flexible)
		if err != nil {
			return nil, err
		}
		out = append(out, LoadSweepPoint{
			MeanInterarrival: inter,
			OfferedPerSec:    1 / inter.Seconds(),
			Baseline:         base.ThroughputPerSec,
			Proposed:         virt[0].ThroughputPerSec,
			BaselineSojourn:  base.AvgSojourn,
			ProposedSojourn:  virt[0].AvgSojourn,
		})
	}
	return out, nil
}

// FormatLoadSweep renders the sweep.
func FormatLoadSweep(points []LoadSweepPoint) string {
	var sb strings.Builder
	sb.WriteString("Extension: throughput vs offered load (workload set 7)\n")
	for _, pt := range points {
		fmt.Fprintf(&sb, "  offered %8.0f/s  baseline %8.0f/s (sojourn %9v)  proposed %8.0f/s (sojourn %9v)\n",
			pt.OfferedPerSec, pt.Baseline, pt.BaselineSojourn.Round(time.Microsecond),
			pt.Proposed, pt.ProposedSojourn.Round(time.Microsecond))
	}
	return sb.String()
}

// PolicyAblationRow compares queue disciplines under the proposed system.
type PolicyAblationRow struct {
	Composition workload.Composition
	FIFO        rms.Result
	SJF         rms.Result
}

// AblationPolicy contrasts the default FIFO-with-backfill queue against
// shortest-job-first on every workload set — the runtime-policy
// exploration the paper leaves as future work.
func AblationPolicy(numTasks int, seed int64) ([]PolicyAblationRow, error) {
	var rows []PolicyAblationRow
	for _, comp := range workload.Table1() {
		tasks, err := workload.Generate(comp, workload.Options{
			NumTasks: numTasks, MeanInterarrival: 20 * time.Microsecond, Seed: seed + int64(comp.Index),
		})
		if err != nil {
			return nil, err
		}
		fifo, err := simulate(tasks, rms.Flexible, rms.FIFOBackfill)
		if err != nil {
			return nil, err
		}
		sjf, err := simulate(tasks, rms.Flexible, rms.SJF)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PolicyAblationRow{Composition: comp, FIFO: fifo, SJF: sjf})
	}
	return rows, nil
}

// FormatAblationPolicy renders the comparison.
func FormatAblationPolicy(rows []PolicyAblationRow) string {
	var sb strings.Builder
	sb.WriteString("Extension: queue-policy ablation (proposed system, FIFO-backfill vs SJF)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-32s fifo %8.0f/s (sojourn %9v)  sjf %8.0f/s (sojourn %9v)\n",
			r.Composition,
			r.FIFO.ThroughputPerSec, r.FIFO.AvgSojourn.Round(time.Microsecond),
			r.SJF.ThroughputPerSec, r.SJF.AvgSojourn.Round(time.Microsecond))
	}
	return sb.String()
}
