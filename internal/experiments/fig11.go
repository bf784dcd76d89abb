package experiments

import (
	"fmt"
	"strings"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/netmodel"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/scaleout"
)

// Fig11Point is one sample of the Fig. 11 sweep.
type Fig11Point struct {
	AddedLatency time.Duration
	// StepWithOverlap / StepNoOverlap are per-timestep latencies on the
	// 2-FPGA deployment with and without the §2.3 optimization.
	StepWithOverlap time.Duration
	StepNoOverlap   time.Duration
	// Hidden reports whether the added latency is fully hidden (the step
	// time equals the zero-added-latency step time).
	Hidden bool
}

// Fig11Series is the sweep for one benchmark line.
type Fig11Series struct {
	Label  string
	Spec   kernels.LayerSpec
	Device string
	Points []Fig11Point
	// CrossoverBudget is the largest added latency the overlap fully
	// hides (the paper: "less than 0.6 us" for the small GRU).
	CrossoverBudget time.Duration
}

// Fig11Specs returns the three benchmark lines of Fig. 11.
func Fig11Specs() []struct {
	Label string
	Spec  kernels.LayerSpec
} {
	return []struct {
		Label string
		Spec  kernels.LayerSpec
	}{
		{"LSTM h=1024", kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 1024, TimeSteps: 1}},
		{"GRU h=1024", kernels.LayerSpec{Kind: kernels.GRU, Hidden: 1024, TimeSteps: 1}},
		{"GRU h=2560", kernels.LayerSpec{Kind: kernels.GRU, Hidden: 2560, TimeSteps: 1}},
	}
}

// Fig11 reproduces the inter-FPGA latency sweep: a 2-FPGA deployment with
// the programmable delay module adding 0..1us, with and without the
// communication/computation overlap.
func Fig11() ([]Fig11Series, error) {
	p := perf.DefaultParams()
	const device = "XCVU37P"
	pair := []string{device, device}
	var out []Fig11Series
	for _, line := range Fig11Specs() {
		series := Fig11Series{Label: line.Label, Spec: line.Spec, Device: device}
		budget, err := scaleout.HiddenLatencyBudget(line.Spec, device, p, netmodel.DefaultRingLink())
		if err != nil {
			return nil, err
		}
		series.CrossoverBudget = budget
		var base time.Duration
		for added := time.Duration(0); added <= time.Microsecond; added += 100 * time.Nanosecond {
			link := netmodel.DefaultRingLink()
			link.AddedLatency = added
			with, _, _, err := scaleout.NFPGAStep(line.Spec, pair, p, scaleout.TwoFPGAOptions{Overlap: true, Link: link})
			if err != nil {
				return nil, err
			}
			without, _, _, err := scaleout.NFPGAStep(line.Spec, pair, p, scaleout.TwoFPGAOptions{Overlap: false, Link: link})
			if err != nil {
				return nil, err
			}
			if added == 0 {
				base = with
			}
			series.Points = append(series.Points, Fig11Point{
				AddedLatency:    added,
				StepWithOverlap: with,
				StepNoOverlap:   without,
				Hidden:          with == base,
			})
		}
		out = append(out, series)
	}
	return out, nil
}

// FormatFig11 renders the sweep as text.
func FormatFig11(series []Fig11Series) string {
	var sb strings.Builder
	sb.WriteString("Fig. 11: per-step latency vs added inter-FPGA latency (2-FPGA deployment)\n")
	for _, s := range series {
		fmt.Fprintf(&sb, "%s on %s (overlap budget %.2fus; paper: LSTM hidden across sweep, small GRU ~0.6us, large GRU not hidden)\n",
			s.Label, s.Device, s.CrossoverBudget.Seconds()*1e6)
		for _, pt := range s.Points {
			marker := " "
			if pt.Hidden {
				marker = "H"
			}
			fmt.Fprintf(&sb, "  added=%4.1fus overlap=%7.3fus  no-overlap=%7.3fus %s\n",
				pt.AddedLatency.Seconds()*1e6,
				pt.StepWithOverlap.Seconds()*1e6,
				pt.StepNoOverlap.Seconds()*1e6, marker)
		}
	}
	return sb.String()
}
